type t = {
  name : string;
  cost : Cost.t;
  cacheable : bool;
  ttl : float option;
  failure_rate : float;
  sources : string list;
}

let make ?(cacheable = true) ?(ttl = None) ?(failure_rate = 0.) ?(sources = [])
    ~name cost =
  if String.length name = 0 || name.[0] <> '/' then
    invalid_arg "Script.make: name must be an absolute path";
  if failure_rate < 0. || failure_rate > 1. then
    invalid_arg "Script.make: failure_rate out of [0,1]";
  { name; cost; cacheable; ttl; failure_rate; sources }

let null =
  make ~name:"/cgi-bin/nullcgi"
    (Cost.make ~output_bytes:64 (Cost.Fixed 0.))

(* The filler at offset [i] is [32 + (h + i) mod 95] — one full cycle of
   the printable ASCII range, phase-shifted by the key hash. Rather than
   computing it per character, blit 95-byte windows out of two
   concatenated cycles: [pattern.[j] = 32 + j mod 95] for [j < 190], so
   the window starting at [h mod 95] spells the whole body. This is the
   bulk of every simulated CGI execution (bodies are kilobytes), and
   blitting is ~50x cheaper than the per-char loop it replaces. *)
let pattern =
  String.init 190 (fun j -> Char.chr (32 + (j mod 95)))

let body_head = "<html><body><!-- "
let body_tail = "</body></html>"
let hex_digits = "0123456789abcdef"

(* Deterministic body: experiments compare bodies fetched from cache with
   bodies from re-execution, so identical keys must yield identical text.
   The text is [body_head ^ name ^ " h=%08x -->"], the payload windows and
   [body_tail], written straight into one exact-length [Bytes]: a body is
   allocated once and never copied. [Hashtbl.hash] is below 2^30, so
   [%08x] always prints exactly eight digits. *)
let output_sized t ~key ~bytes =
  let h = Hashtbl.hash (t.name, key) in
  let payload_len = Stdlib.max 0 (bytes - 96) in
  let name_len = String.length t.name in
  let head_len = String.length body_head in
  let tag_len = 15 (* " h=" ^ 8 hex digits ^ " -->" *) in
  let payload_off = head_len + name_len + tag_len in
  let len = payload_off + payload_len + String.length body_tail in
  let b = Bytes.create len in
  Bytes.blit_string body_head 0 b 0 head_len;
  Bytes.blit_string t.name 0 b head_len name_len;
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

let output t ~key = output_sized t ~key ~bytes:t.cost.Cost.output_bytes
