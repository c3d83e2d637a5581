type t =
  | Bytes of string
  | Cgi of { script : string; key : string; bytes : int }

let empty = Bytes ""
let of_string s = if String.length s = 0 then empty else Bytes s
let cgi ~script ~key ~bytes = Cgi { script; key; bytes }

(* The filler at offset [i] is [32 + (h + i) mod 95] — one full cycle of
   the printable ASCII range, phase-shifted by the key hash. Rather than
   computing it per character, blit 95-byte windows out of two
   concatenated cycles: [pattern.[j] = 32 + j mod 95] for [j < 190], so
   the window starting at [h mod 95] spells the whole filler. *)
let pattern = String.init 190 (fun j -> Char.chr (32 + (j mod 95)))

let body_head = "<html><body><!-- "
let body_tail = "</body></html>"
let hex_digits = "0123456789abcdef"
let tag_len = 15 (* " h=" ^ 8 hex digits ^ " -->" *)

let cgi_length ~script ~bytes =
  String.length body_head + String.length script + tag_len
  + Stdlib.max 0 (bytes - 96)
  + String.length body_tail

let length = function
  | Bytes s -> String.length s
  | Cgi { script; bytes; _ } -> cgi_length ~script ~bytes

(* The text is [body_head ^ script ^ " h=%08x -->"], the filler windows
   and [body_tail], written straight into one exact-length [Bytes].
   [Hashtbl.hash] is below 2^30, so [%08x] always prints exactly eight
   digits. *)
let render_cgi ~script ~key ~bytes =
  let h = Hashtbl.hash (script, key) in
  let payload_len = Stdlib.max 0 (bytes - 96) in
  let name_len = String.length script in
  let head_len = String.length body_head in
  let payload_off = head_len + name_len + tag_len in
  let b = Bytes.create (cgi_length ~script ~bytes) in
  Bytes.blit_string body_head 0 b 0 head_len;
  Bytes.blit_string script 0 b head_len name_len;
  let tag = head_len + name_len in
  Bytes.blit_string " h=" 0 b tag 3;
  for d = 0 to 7 do
    Bytes.unsafe_set b (tag + 3 + d)
      hex_digits.[(h lsr (4 * (7 - d))) land 0xf]
  done;
  Bytes.blit_string " -->" 0 b (tag + 11) 4;
  let start = h mod 95 in
  let i = ref 0 in
  while payload_len - !i >= 95 do
    Bytes.blit_string pattern start b (payload_off + !i) 95;
    i := !i + 95
  done;
  Bytes.blit_string pattern start b (payload_off + !i) (payload_len - !i);
  Bytes.blit_string body_tail 0 b (payload_off + payload_len)
    (String.length body_tail);
  Bytes.unsafe_to_string b

let to_string = function
  | Bytes s -> s
  | Cgi { script; key; bytes } -> render_cgi ~script ~key ~bytes
