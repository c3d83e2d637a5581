(** Response bodies as small immutable descriptors.

    A simulated CGI result is never rendered on the simulated path: the
    cost model reads only a body's {!length} (per-byte CPU, NIC and disk
    charges), so executions, the result store, remote fetches and
    responses all carry a [Cgi] descriptor of a few words. Bytes are
    rendered by {!to_string} only at the HTTP wire edge
    ([Response.to_wire]) and in tests that compare bytes. *)

type t =
  | Bytes of string  (** literal bytes: parsed, error and test bodies *)
  | Cgi of { script : string; key : string; bytes : int }
      (** the output of CGI program [script] for canonical request [key],
          sized after [bytes] (see {!cgi}) *)

(** [empty] is the shared zero-length body. *)
val empty : t

(** [of_string s] is [Bytes s] ([empty] when [s = ""]). *)
val of_string : string -> t

(** [cgi ~script ~key ~bytes] describes the deterministic body that CGI
    program [script] produces for [key], of approximately [bytes] bytes:
    a fixed header naming the script and a hash of [(script, key)], a
    filler of [max 0 (bytes - 96)] bytes, and a fixed trailer. Identical
    arguments always render identical text. *)
val cgi : script:string -> key:string -> bytes:int -> t

(** [length t] is [String.length (to_string t)], in O(1) without
    rendering. This is the only size the simulator reads. *)
val length : t -> int

(** [to_string t] renders the bytes [t] describes: a fresh exact-length
    string for [Cgi], the string itself for [Bytes]. *)
val to_string : t -> string
