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

(* Deterministic body: experiments compare bodies fetched from cache with
   bodies from re-execution, so identical keys must yield identical text.
   The body is a descriptor; its bytes are rendered only on demand. *)
let body t ~key ~bytes = Http.Body.cgi ~script:t.name ~key ~bytes
let output_sized t ~key ~bytes = Http.Body.to_string (body t ~key ~bytes)
let output t ~key = output_sized t ~key ~bytes:t.cost.Cost.output_bytes
