(** HTTP/1.0 responses. *)

type t = {
  status : Status.t;
  version : string;
  headers : Headers.t;
  body : string;
}

val make : ?headers:Headers.t -> ?body:string -> Status.t -> t

(** [ok body] is a [200] with [Content-Type: text/html]. *)
val ok : string -> t

(** [error status message] wraps [message] in a minimal HTML body. *)
val error : Status.t -> string -> t

val parse : string -> (t, string) result
val to_wire : t -> string

(** [wire_size t] is [String.length (to_wire t)], computed without
    rendering or copying the body. *)
val wire_size : t -> int

(** [body_size t] is [String.length t.body]. *)
val body_size : t -> int

val pp : Format.formatter -> t -> unit
