let split_head s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then (List.rev acc, n)
    else
      match String.index_from_opt s i '\n' with
      | None -> (List.rev (String.sub s i (n - i) :: acc), n)
      | Some j ->
          let stop = if j > i && s.[j - 1] = '\r' then j - 1 else j in
          let line = String.sub s i (stop - i) in
          if String.equal line "" then (List.rev acc, j + 1)
          else go (j + 1) (line :: acc)
  in
  go 0 []

let parse_header_line line =
  match String.index_opt line ':' with
  | None -> Error (Printf.sprintf "malformed header line %S" line)
  | Some i ->
      let name = String.sub line 0 i in
      let value =
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
      in
      if String.equal (String.trim name) "" then Error "empty header name"
      else Ok (String.trim name, value)

(* Byte counts of what [Request.to_wire]/[Response.to_wire] print, so
   [wire_size] can add them up instead of rendering. *)
let rec decimal_length n = if n < 10 then 1 else 1 + decimal_length (n / 10)

let rec header_lines_length = function
  | [] -> 0
  | (k, v) :: rest ->
      String.length k + 2 + String.length v + 2 + header_lines_length rest

let content_length_line_length body_len =
  String.length "Content-Length: \r\n" + decimal_length body_len
