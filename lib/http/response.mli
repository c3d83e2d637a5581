(** HTTP/1.0 responses.

    A response carries its body as a {!Body.t} descriptor. The simulator
    sizes and charges it through {!body_size} and {!wire_size}, which read
    only {!Body.length}; the bytes are rendered by {!to_wire} alone, the
    HTTP wire edge. *)

type t = {
  status : Status.t;
  version : string;
  headers : Headers.t;
  body : Body.t;
}

(** [make ?headers ?body status]; [body] defaults to {!Body.empty}. *)
val make : ?headers:Headers.t -> ?body:Body.t -> Status.t -> t

(** [ok_body body] is a [200] with [Content-Type: text/html]. *)
val ok_body : Body.t -> t

(** [ok s] is [ok_body (Body.of_string s)]. *)
val ok : string -> t

(** [error status message] wraps [message] in a minimal HTML body. *)
val error : Status.t -> string -> t

(** [parse s] reads a response off the wire; its body is [Bytes]. *)
val parse : string -> (t, string) result

(** [to_wire t] serialises with CRLF line endings, adding
    [Content-Length] when absent. It renders the body's bytes. *)
val to_wire : t -> string

(** [wire_size t] is [String.length (to_wire t)], computed without
    rendering or copying the body. *)
val wire_size : t -> int

(** [body_size t] is [Body.length t.body]. *)
val body_size : t -> int

val pp : Format.formatter -> t -> unit
