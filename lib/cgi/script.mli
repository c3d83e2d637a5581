(** A registered CGI program.

    [cacheable] mirrors Swala's configuration file: the administrator marks
    which programs may have their results cached (scripts whose output
    depends on the requesting user must not be). [ttl] is the per-CGI
    Time-To-Live that implements the paper's weak content consistency. *)

type t = {
  name : string;  (** URL path, e.g. ["/cgi-bin/query"] *)
  cost : Cost.t;
  cacheable : bool;
  ttl : float option;  (** [None] = never expires *)
  failure_rate : float;  (** probability an execution exits non-zero *)
  sources : string list;
      (** input files this program reads; when one changes, every cached
          result of the program is stale (the Vahdat-Anderson transparent
          result-caching model the paper cites as future work) *)
}

val make :
  ?cacheable:bool -> ?ttl:float option -> ?failure_rate:float ->
  ?sources:string list -> name:string -> Cost.t -> t

(** [null] is WebStone's [nullcgi]: no work, under a hundred bytes of
    output. Running it measures pure invocation overhead (paper §5.1). *)
val null : t

(** [body t ~key ~bytes] is the result this script produces for canonical
    request key [key], of approximately [bytes] bytes (the script's cost
    model, or a trace's override, picks [bytes]). It is a descriptor: a
    simulated execution renders nothing, and the simulator reads only its
    {!Http.Body.length}. *)
val body : t -> key:string -> bytes:int -> Http.Body.t

(** [output_sized t ~key ~bytes] is [Http.Body.to_string (body t ~key
    ~bytes)], the rendered text. Identical keys always yield identical
    text, so a body fetched from cache equals its re-execution. *)
val output_sized : t -> key:string -> bytes:int -> string

(** [output t ~key] is [output_sized] at the cost model's
    [output_bytes]. *)
val output : t -> key:string -> string
