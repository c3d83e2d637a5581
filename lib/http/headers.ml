type t = (string * string) list (* insertion order *)

let empty = []
let add t name value = t @ [ (name, value) ]

(* Case-insensitive name comparison without lowercased copies: header
   lookups run on every simulated response ([transfer_bytes],
   [wire_size]), so they must not allocate. *)
let rec equal_from a b i =
  i >= String.length a
  || Char.lowercase_ascii (String.unsafe_get a i)
     = Char.lowercase_ascii (String.unsafe_get b i)
     && equal_from a b (i + 1)

let name_equal a b = String.length a = String.length b && equal_from a b 0
let matches name (k, _) = name_equal k name

let rec get t name =
  match t with
  | [] -> None
  | (k, v) :: rest -> if name_equal k name then Some v else get rest name

let get_all t name = List.filter (matches name) t |> List.map snd
let remove t name = List.filter (fun kv -> not (matches name kv)) t
let replace t name value = add (remove t name) name value

let rec mem t name =
  match t with
  | [] -> false
  | (k, _) :: rest -> name_equal k name || mem rest name

let to_list t = t
let of_list l = l
let length = List.length

let content_length t =
  match get t "Content-Length" with
  | None -> None
  | Some v -> int_of_string_opt (String.trim v)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter (fun (k, v) -> Format.fprintf ppf "%s: %s@ " k v) t;
  Format.fprintf ppf "@]"
