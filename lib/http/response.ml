type t = {
  status : Status.t;
  version : string;
  headers : Headers.t;
  body : Body.t;
}

let make ?(headers = Headers.empty) ?(body = Body.empty) status =
  { status; version = "HTTP/1.0"; headers; body }

let html = Headers.add Headers.empty "Content-Type" "text/html"
let ok_body body = make ~headers:html ~body Status.Ok
let ok s = ok_body (Body.of_string s)

let error status message =
  let body =
    Printf.sprintf "<html><body><h1>%d %s</h1><p>%s</p></body></html>"
      (Status.code status) (Status.reason status) message
  in
  make ~headers:html ~body:(Body.of_string body) status

let split_head = Wire.split_head
let parse_header_line = Wire.parse_header_line

let parse s =
  match split_head s with
  | [], _ -> Error "empty response"
  | status_line :: header_lines, body_off -> (
      match String.split_on_char ' ' status_line with
      | version :: code :: _reason -> (
          match int_of_string_opt code with
          | None -> Error (Printf.sprintf "bad status code %S" code)
          | Some n -> (
              match Status.of_code n with
              | Error e -> Error e
              | Ok status ->
                  let rec headers acc = function
                    | [] -> Ok (Headers.of_list (List.rev acc))
                    | line :: rest -> (
                        match parse_header_line line with
                        | Ok kv -> headers (kv :: acc) rest
                        | Error e -> Error e)
                  in
                  (match headers [] header_lines with
                  | Error e -> Error e
                  | Ok hs ->
                      let avail = String.length s - body_off in
                      let want =
                        match Headers.content_length hs with
                        | Some n -> Stdlib.min n avail
                        | None -> avail
                      in
                      let body =
                        Body.of_string
                          (String.sub s body_off (Stdlib.max 0 want))
                      in
                      Ok { status; version; headers = hs; body })))
      | [] | [ _ ] -> Error "malformed status line")

(* The one place a response's body bytes are rendered. *)
let to_wire t =
  let body = Body.to_string t.body in
  let buf = Buffer.create (String.length body + 128) in
  Buffer.add_string buf t.version;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int (Status.code t.status));
  Buffer.add_char buf ' ';
  Buffer.add_string buf (Status.reason t.status);
  Buffer.add_string buf "\r\n";
  let headers =
    if not (Headers.mem t.headers "Content-Length") then
      Headers.replace t.headers "Content-Length"
        (string_of_int (String.length body))
    else t.headers
  in
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf k;
      Buffer.add_string buf ": ";
      Buffer.add_string buf v;
      Buffer.add_string buf "\r\n")
    (Headers.to_list headers);
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf body;
  Buffer.contents buf

(* Add up what [to_wire] would print, line by line, without printing it:
   this is charged on every simulated response, bodies included. *)
let wire_size t =
  let body_len = Body.length t.body in
  String.length t.version
  + 1
  + Wire.decimal_length (Status.code t.status)
  + 1
  + String.length (Status.reason t.status)
  + 2
  + Wire.header_lines_length (Headers.to_list t.headers)
  + (if Headers.mem t.headers "Content-Length" then 0
     else Wire.content_length_line_length body_len)
  + 2
  + body_len

let body_size t = Body.length t.body

let pp ppf t =
  Format.fprintf ppf "%s %a (%d bytes)" t.version Status.pp t.status
    (body_size t)
