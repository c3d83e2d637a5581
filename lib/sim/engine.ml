(* What an event does when it fires. The common timer paths carry the
   captured continuation directly instead of a [fun () -> continue k v]
   thunk, which removes one closure allocation per delay/resume — the
   two dominant event kinds. [Noop] doubles as the dummy payload of the
   heap and as the "already fired" marker: executed events have their
   action overwritten so [cancel] can distinguish fired from pending and
   so the closure/continuation is released immediately. *)
type action =
  | Noop
  | Call of (unit -> unit)
  | Resume_unit of (unit, unit) Effect.Deep.continuation
  | Resume : ('a, unit) Effect.Deep.continuation * 'a -> action

type event = {
  mutable cancelled : bool;
  (* Shared with the owning engine: the count of cancelled events still
     sitting in the heap. A ref rather than a back-pointer to the engine
     so the heap's dummy event can exist before any engine does. *)
  cancels : int ref;
  mutable action : action;
}

type handle = event

(* Events live in one of three queues, merged by (time, seq) in [run]:

   - [queue], a binary heap of cancellable events ([schedule_at], timed
     delays). Cancellation is lazy: the event is flagged and dropped when
     it reaches the top, with compaction once dead events dominate.
   - the ready ring, a FIFO of same-instant wakeups ([resume], [yield],
     forks, [spawn]). Each is pushed at the current time with a fresh
     seq, so the ring is sorted by construction, and it drains before
     the clock can move.
   - the timer heap, an indexed heap of preallocated re-armable timers
     ([timer]). Arming draws a fresh seq exactly as [schedule_at] would
     and sifts the record in place; disarming removes it in place, so a
     CPU re-planning its next completion neither allocates nor leaves a
     cancelled event behind. *)
type t = {
  (* An all-float record rather than a [mutable float] field or a
     [float ref]: both of those hold a pointer to a boxed float, so every
     clock advance would allocate; this record stores it flat. *)
  clock : clock;
  mutable next_seq : int;
  (* cancelled-but-not-yet-popped events in [queue]; drives lazy
     compaction and the [pending] count *)
  cancels : int ref;
  mutable n_suspended : int;
  mutable n_events : int;  (* events executed by [run], for perf reporting *)
  queue : event Pqueue.Timed.t;
  (* Ready ring: [ready_len] actions from [ready_head], wrapping at the
     power-of-two capacity, each beside its seq. Their time is the
     current clock. *)
  mutable ready : action array;
  mutable ready_seqs : int array;
  mutable ready_head : int;
  mutable ready_len : int;
  (* Timer heap: parallel key columns plus the timers, each of which
     knows its slot. A slot at or past [tm_size] may keep a disarmed
     timer reachable until the slot is reused; there is no dummy timer
     to overwrite it with, since a timer needs an owning engine. *)
  mutable tm_times : float array;
  mutable tm_seqs : int array;
  mutable tm_data : timer array;
  mutable tm_size : int;
}

and clock = { mutable now : float }

and timer = {
  owner : t;
  callback : timer -> unit;
  mutable pos : int;  (* slot in the timer heap, or -1 when disarmed *)
}

exception Not_in_process
exception Deadlock of string

let ready_initial = 16

let create () =
  {
    clock = { now = 0. };
    next_seq = 0;
    cancels = ref 0;
    n_suspended = 0;
    n_events = 0;
    queue =
      Pqueue.Timed.create
        ~dummy:{ cancelled = true; cancels = ref 0; action = Noop }
        ();
    ready = Array.make ready_initial Noop;
    ready_seqs = Array.make ready_initial 0;
    ready_head = 0;
    ready_len = 0;
    tm_times = [||];
    tm_seqs = [||];
    tm_data = [||];
    tm_size = 0;
  }

let current_time t = t.clock.now

(* Unvalidated push shared by every heap scheduling path; sequence numbers
   are allocated here in call order, which fixes the deterministic
   tie-break. *)
let push_event t time ev =
  Pqueue.Timed.push t.queue ~time ~seq:t.next_seq ev;
  t.next_seq <- t.next_seq + 1

(* Append a same-instant action to the ready ring under a fresh seq. *)
let push_ready t act =
  let cap = Array.length t.ready in
  if t.ready_len = cap then begin
    let nready = Array.make (2 * cap) Noop in
    let nseqs = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      let j = (t.ready_head + i) land (cap - 1) in
      nready.(i) <- t.ready.(j);
      nseqs.(i) <- t.ready_seqs.(j)
    done;
    t.ready <- nready;
    t.ready_seqs <- nseqs;
    t.ready_head <- 0
  end;
  let i = (t.ready_head + t.ready_len) land (Array.length t.ready - 1) in
  t.ready.(i) <- act;
  t.ready_seqs.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.ready_len <- t.ready_len + 1

let schedule_at t time f =
  if time < t.clock.now then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is in the past (now %g)"
         time t.clock.now);
  let ev = { cancelled = false; cancels = t.cancels; action = Call f } in
  push_event t time ev;
  ev

let schedule_after t dt f =
  if dt < 0. then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t (t.clock.now +. dt) f

let cancel ev =
  (* Idempotent, and a no-op once the event has fired ([run] clears the
     action), so the shared counter stays an exact census of cancelled
     events still in the heap. *)
  if (not ev.cancelled) && ev.action != Noop then begin
    ev.cancelled <- true;
    incr ev.cancels
  end

(* ------------------------------------------------------------------ *)
(* Re-armable timers

   The timer heap sifts with a hole like [Pqueue.Timed]. The moving key
   is read from the columns into locals rather than passed as a float
   argument, so arming boxes nothing beyond its own [dt]. *)

let timer t callback = { owner = t; callback; pos = -1 }

(* Restore the heap property around slot [i], whose key may have moved
   either way, and record every displaced timer's new slot. *)
let tm_fix t i =
  let times = t.tm_times and seqs = t.tm_seqs and data = t.tm_data in
  let n = t.tm_size in
  let time = times.(i) and seq = seqs.(i) and x = data.(i) in
  let i = ref i in
  let up = ref true in
  while !up && !i > 0 do
    let p = (!i - 1) / 2 in
    let tp = times.(p) in
    if tp > time || (tp = time && seqs.(p) > seq) then begin
      times.(!i) <- tp;
      seqs.(!i) <- seqs.(p);
      let y = data.(p) in
      data.(!i) <- y;
      y.pos <- !i;
      i := p
    end
    else up := false
  done;
  let down = ref true in
  while !down do
    let l = (2 * !i) + 1 in
    if l >= n then down := false
    else begin
      let r = l + 1 in
      let c =
        if
          r < n
          && (times.(r) < times.(l)
             || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
        then r
        else l
      in
      if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
        times.(!i) <- times.(c);
        seqs.(!i) <- seqs.(c);
        let y = data.(c) in
        data.(!i) <- y;
        y.pos <- !i;
        i := c
      end
      else down := false
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  data.(!i) <- x;
  x.pos <- !i

let tm_remove t tm =
  let i = tm.pos in
  let last = t.tm_size - 1 in
  t.tm_size <- last;
  tm.pos <- -1;
  if i < last then begin
    t.tm_times.(i) <- t.tm_times.(last);
    t.tm_seqs.(i) <- t.tm_seqs.(last);
    t.tm_data.(i) <- t.tm_data.(last);
    tm_fix t i
  end

let disarm tm = if tm.pos >= 0 then tm_remove tm.owner tm

let arm_after tm dt =
  if dt < 0. then invalid_arg "Engine.arm_after: negative delay";
  let t = tm.owner in
  let i =
    if tm.pos >= 0 then tm.pos
    else begin
      let cap = Array.length t.tm_times in
      if t.tm_size = cap then begin
        let ncap = if cap = 0 then 8 else 2 * cap in
        let ntimes = Array.make ncap 0. in
        let nseqs = Array.make ncap 0 in
        let ndata = Array.make ncap tm in
        Array.blit t.tm_times 0 ntimes 0 cap;
        Array.blit t.tm_seqs 0 nseqs 0 cap;
        Array.blit t.tm_data 0 ndata 0 cap;
        t.tm_times <- ntimes;
        t.tm_seqs <- nseqs;
        t.tm_data <- ndata
      end;
      let i = t.tm_size in
      t.tm_size <- i + 1;
      t.tm_data.(i) <- tm;
      i
    end
  in
  t.tm_times.(i) <- t.clock.now +. dt;
  t.tm_seqs.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  tm_fix t i

let pending t =
  Pqueue.Timed.length t.queue - !(t.cancels) + t.ready_len + t.tm_size

let suspended t = t.n_suspended
let events_processed t = t.n_events

(* Flight-recorder inspection over all three queues: raw occupancy
   (live + cancelled), backing capacity, and the lazy-cancellation
   census, which only the event heap can hold — [pending] nets it out,
   but telemetry wants to watch the garbage fraction that drives
   compaction. All are O(1) reads. *)
let heap_depth t = Pqueue.Timed.length t.queue + t.ready_len + t.tm_size

let heap_capacity t =
  Pqueue.Timed.capacity t.queue + Array.length t.ready
  + Array.length t.tm_times

let cancelled_events t = !(t.cancels)

(* ------------------------------------------------------------------ *)
(* Current engine

   [now]/[self_engine] are called on every traced operation and many hot
   paths; performing an effect for them costs a handler round-trip per
   call. Instead the running engine is published in a domain-local slot
   for the duration of [run] — reading it is a flat load, and keeping the
   slot per-domain is what lets [Sweep] run one engine per domain. *)

let current : t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let now () =
  match !(Domain.DLS.get current) with
  | Some t -> t.clock.now
  | None -> raise Not_in_process

let self_engine () =
  match !(Domain.DLS.get current) with
  | Some t -> t
  | None -> raise Not_in_process

(* ------------------------------------------------------------------ *)
(* Effects *)

type 'a resumer = {
  mutable fired : bool;
  r_eng : t;
  r_k : ('a, unit) Effect.Deep.continuation;
}

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Suspend : ('a resumer -> unit) -> 'a Effect.t
  | Fork : (unit -> unit) -> unit Effect.t
  | Get_local : int Effect.t
  | Set_local : int -> unit Effect.t

let resume r v =
  if r.fired then invalid_arg "Engine: resumer called twice";
  r.fired <- true;
  let t = r.r_eng in
  t.n_suspended <- t.n_suspended - 1;
  push_ready t (Resume (r.r_k, v))

let delay dt =
  if dt < 0. then invalid_arg "Engine.delay: negative delay";
  try Effect.perform (Delay dt) with Effect.Unhandled _ -> raise Not_in_process

let yield () = delay 0.

let spawn_child f =
  try Effect.perform (Fork f) with Effect.Unhandled _ -> raise Not_in_process

let suspend register =
  try Effect.perform (Suspend register)
  with Effect.Unhandled _ -> raise Not_in_process

(* Outside any process there is no fiber-local slot; reading yields the
   zero value so observers (tracing) can treat "no context" uniformly,
   while writing is a programming error. *)
let get_local () = try Effect.perform Get_local with Effect.Unhandled _ -> 0

let set_local v =
  try Effect.perform (Set_local v) with Effect.Unhandled _ -> raise Not_in_process

(* ------------------------------------------------------------------ *)
(* Process runner *)

open Effect.Deep

let rec run_process t ?(local = 0) (f : unit -> unit) =
  let local = ref local in
  let handler =
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay dt ->
              Some
                (fun (k : (a, unit) continuation) ->
                  (* dt >= 0 was validated by [delay]; a zero delay
                     lands at the current instant, i.e. in the ring *)
                  if dt = 0. then push_ready t (Resume_unit k)
                  else
                    push_event t (t.clock.now +. dt)
                      {
                        cancelled = false;
                        cancels = t.cancels;
                        action = Resume_unit k;
                      })
          | Get_local ->
              Some (fun (k : (a, unit) continuation) -> continue k !local)
          | Set_local v ->
              Some
                (fun (k : (a, unit) continuation) ->
                  local := v;
                  continue k ())
          | Fork g ->
              Some
                (fun (k : (a, unit) continuation) ->
                  (* The child inherits the local slot's value at fork time
                     (its own copy — later writes don't propagate). *)
                  let inherited = !local in
                  push_ready t
                    (Call (fun () -> run_process t ~local:inherited g));
                  continue k ())
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  t.n_suspended <- t.n_suspended + 1;
                  register { fired = false; r_eng = t; r_k = k })
          | _ -> None);
    }
  in
  match_with f () handler

let spawn t f = push_ready t (Call (fun () -> run_process t f))

(* Compact the heap once cancelled events outnumber live ones (and are
   numerous enough for the O(n) sweep to be worth it). Survivors keep
   their (time, seq) keys, so execution order is unaffected. *)
let compact_threshold = 64

let maybe_compact t =
  let c = !(t.cancels) in
  if c > compact_threshold && 2 * c > Pqueue.Timed.length t.queue then begin
    Pqueue.Timed.compact t.queue ~keep:(fun ev -> not ev.cancelled);
    t.cancels := 0
  end

let exec_action = function
  | Noop -> ()
  | Call f -> f ()
  | Resume_unit k -> continue k ()
  | Resume (k, v) -> continue k v

(* Which queue holds the next event by (time, seq): [1] the event heap,
   [2] the timer heap, [3] the ready ring, [0] none. The ring's head is
   at the current instant, which no pending event precedes, so only a
   same-instant heap or timer event with a smaller seq can go first. *)
let next_source t =
  let q = t.queue in
  let heap = not (Pqueue.Timed.is_empty q) and timers = t.tm_size > 0 in
  if t.ready_len > 0 then begin
    let now = t.clock.now and rs = t.ready_seqs.(t.ready_head) in
    let heap_first =
      heap && Pqueue.Timed.min_time q = now && Pqueue.Timed.min_seq q < rs
    in
    let timer_first =
      timers && t.tm_times.(0) = now && t.tm_seqs.(0) < rs
    in
    if heap_first then
      if timer_first && t.tm_seqs.(0) < Pqueue.Timed.min_seq q then 2 else 1
    else if timer_first then 2
    else 3
  end
  else if heap then
    if timers then
      let ht = Pqueue.Timed.min_time q and tt = t.tm_times.(0) in
      if tt < ht || (tt = ht && t.tm_seqs.(0) < Pqueue.Timed.min_seq q) then 2
      else 1
    else 1
  else if timers then 2
  else 0

let run ?until ?(detect_deadlock = false) t =
  let slot = Domain.DLS.get current in
  let saved = !slot in
  slot := Some t;
  Fun.protect
    ~finally:(fun () -> slot := saved)
    (fun () ->
      let q = t.queue in
      (* Events after the horizon stay queued. A float horizon (infinite
         without [until]) keeps the per-event test a flat comparison that
         boxes nothing. *)
      let horizon = match until with Some h -> h | None -> infinity in
      let rec loop () =
        maybe_compact t;
        if (not (Pqueue.Timed.is_empty q)) && (Pqueue.Timed.peek_min q).cancelled
        then begin
          ignore (Pqueue.Timed.pop_min q : event);
          decr t.cancels;
          loop ()
        end
        else
          match next_source t with
          | 0 -> ()
          | 1 ->
              let time = Pqueue.Timed.min_time q in
              if time <= horizon then begin
                let ev = Pqueue.Timed.pop_min q in
                t.clock.now <- time;
                t.n_events <- t.n_events + 1;
                let act = ev.action in
                ev.action <- Noop;
                exec_action act;
                loop ()
              end
          | 2 ->
              let time = t.tm_times.(0) in
              if time <= horizon then begin
                let tm = t.tm_data.(0) in
                tm_remove t tm;
                t.clock.now <- time;
                t.n_events <- t.n_events + 1;
                tm.callback tm;
                loop ()
              end
          | _ ->
              if t.clock.now <= horizon then begin
                let i = t.ready_head in
                let act = t.ready.(i) in
                t.ready.(i) <- Noop;
                t.ready_head <- (i + 1) land (Array.length t.ready - 1);
                t.ready_len <- t.ready_len - 1;
                t.n_events <- t.n_events + 1;
                exec_action act;
                loop ()
              end
      in
      loop ();
      (* The loop stops when the queues drain or the next event lies past
         [until]; either way the clock moves on to the horizon. *)
      (match until with
      | Some h -> t.clock.now <- Float.max t.clock.now h
      | None -> ());
      if detect_deadlock && pending t = 0 && t.n_suspended > 0 then
        raise
          (Deadlock
             (Printf.sprintf "%d process(es) still suspended at t=%g"
                t.n_suspended t.clock.now)))
