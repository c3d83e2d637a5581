(** Processor-sharing CPU model.

    A node's CPU serves all resident jobs simultaneously: with [n] active
    jobs on [cores] cores, each job progresses at rate
    [speed * min(1, cores/n)]. Job demands are expressed in seconds of
    dedicated CPU at [speed = 1.0], so a 1-second CGI alone on a 1-core node
    finishes in 1 simulated second, while 24 concurrent null-CGIs each take
    about 24 times their solo time — the contention effect the paper points
    out under its Figure 3.

    Completions are recomputed on every arrival and departure, which makes
    the model exact (not time-stepped). Each CPU owns one re-armable
    {!Engine.timer} for its next completion and keeps resident jobs in
    flat arrays, so a {!consume} allocates no job record, list cell or
    completion event. Jobs that finish at the same instant resume newest first. *)

type t

(** [create engine ~cores] with optional [speed] (default [1.0], relative to
    the reference node). [observe], if given, is called once per completed
    {!consume} with the contention delay — elapsed service time beyond the
    solo (dedicated-core) time for the demand — and the run-queue length
    when the job arrived. It must only record — it runs inside the consuming
    process and must not block or schedule. *)
val create :
  ?speed:float ->
  ?observe:(wait:float -> depth:int -> unit) ->
  Engine.t ->
  cores:int ->
  t

(** [consume cpu demand] blocks the calling process until [demand >= 0]
    seconds of dedicated-CPU work have been served to it. *)
val consume : t -> float -> unit

(** [active_jobs cpu] is the number of jobs currently being served. *)
val active_jobs : t -> int

(** [completed cpu] counts jobs fully served so far. *)
val completed : t -> int

(** [busy_time cpu] is the integral of (serving-capacity in use) over time:
    total CPU-seconds delivered so far. *)
val busy_time : t -> float

(** [utilisation cpu ~elapsed] is delivered work divided by capacity over
    [elapsed] seconds. *)
val utilisation : t -> elapsed:float -> float
