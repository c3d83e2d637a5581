(* Property tests for the engine's binary heaps (Pqueue) and the
   cancellation machinery layered on them by Engine.

   The heaps power the hot loop, so they are tested model-based: random
   push/pop sequences replayed against a sorted-list oracle, for both
   the generic comparison heap and the (time, seq)-keyed Timed heap the
   event loop uses. The Timed properties pin down the determinism
   contract — ties in time pop in sequence (i.e. push) order — and that
   [compact] (the lazy-cancellation purge) preserves exactly the kept
   elements and their relative order. Deterministic cases cover the
   space-leak regression (capacity released on drain, shrunk on partial
   drain) and Engine-level cancel/compaction accounting.

   QCheck_alcotest ignores QCHECK_COUNT, so the long-iteration CI job's
   knob is honoured here by hand. *)

let count =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> (
      match int_of_string_opt s with Some n when n > 0 -> n | _ -> 200)
  | None -> 200

(* ------------------------------------------------------------------ *)
(* Generic heap vs a sorted-list model *)

let prop_heapsort =
  QCheck.Test.make ~count ~name:"drain pops a sorted sequence"
    QCheck.(list small_signed_int)
    (fun xs ->
      let h = Sim.Pqueue.create ~cmp:Int.compare in
      List.iter (Sim.Pqueue.push h) xs;
      let out = ref [] in
      Sim.Pqueue.drain h (fun x -> out := x :: !out);
      List.rev !out = List.sort Int.compare xs)

type gop = Push of int | Pop

let gops_arb =
  let print ops =
    String.concat ";"
      (List.map
         (function Push x -> Printf.sprintf "push %d" x | Pop -> "pop")
         ops)
  in
  QCheck.make ~print
    QCheck.Gen.(
      list_size (0 -- 200)
        (frequency
           [ (3, map (fun x -> Push x) (int_range (-50) 50)); (2, return Pop) ]))

let prop_interleaved =
  QCheck.Test.make ~count ~name:"interleaved push/pop matches the model"
    gops_arb
    (fun ops ->
      let h = Sim.Pqueue.create ~cmp:Int.compare in
      let model = ref [] in
      List.for_all
        (function
          | Push x ->
              Sim.Pqueue.push h x;
              model := List.sort Int.compare (x :: !model);
              true
          | Pop -> (
              match (Sim.Pqueue.pop h, !model) with
              | None, [] -> true
              | Some x, m :: rest when x = m ->
                  model := rest;
                  true
              | _ -> false))
        ops
      && Sim.Pqueue.length h = List.length !model)

(* The leak regression this PR fixed: a drained heap used to keep its
   peak-size backing array alive with the last popped element still
   reachable at data.(size). Now pops overwrite the freed slot, the
   array halves when occupancy falls below a quarter, and a fully
   drained heap releases the array entirely. *)
let test_capacity_release () =
  let h = Sim.Pqueue.create ~cmp:Int.compare in
  for i = 1 to 1024 do
    Sim.Pqueue.push h i
  done;
  Alcotest.(check bool) "grew" true (Sim.Pqueue.capacity h >= 1024);
  for _ = 1 to 1014 do
    ignore (Sim.Pqueue.pop h : int option)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "shrank towards occupancy (capacity %d)"
       (Sim.Pqueue.capacity h))
    true
    (Sim.Pqueue.capacity h <= 64);
  Sim.Pqueue.drain h (fun _ -> ());
  Alcotest.(check int) "drained heap releases the array" 0
    (Sim.Pqueue.capacity h)

(* ------------------------------------------------------------------ *)
(* Timed heap: the (time, seq) determinism contract *)

type top = TPush of float | TPop

let times = [ 0.; 0.25; 1.; 1.; 2.; 3.5 ]

let tops_arb =
  let print ops =
    String.concat ";"
      (List.map
         (function TPush t -> Printf.sprintf "push %g" t | TPop -> "pop")
         ops)
  in
  QCheck.make ~print
    QCheck.Gen.(
      list_size (0 -- 200)
        (frequency
           [ (3, map (fun t -> TPush t) (oneofl times)); (2, return TPop) ]))

let key_cmp (t1, s1) (t2, s2) =
  if t1 <> t2 then Float.compare t1 t2 else Int.compare s1 s2

let prop_timed =
  QCheck.Test.make ~count
    ~name:"Timed pops by (time, seq): ties resolve in push order" tops_arb
    (fun ops ->
      let h = Sim.Pqueue.Timed.create ~dummy:(-1) () in
      let seq = ref 0 in
      (* model: (time, seq) pairs, sorted; payload is the seq itself *)
      let model = ref [] in
      List.for_all
        (function
          | TPush time ->
              Sim.Pqueue.Timed.push h ~time ~seq:!seq !seq;
              model := List.sort key_cmp ((time, !seq) :: !model);
              incr seq;
              true
          | TPop -> (
              match !model with
              | [] -> Sim.Pqueue.Timed.is_empty h
              | (t, s) :: rest ->
                  let mt = Sim.Pqueue.Timed.min_time h in
                  let x = Sim.Pqueue.Timed.pop_min h in
                  model := rest;
                  mt = t && x = s))
        ops
      && Sim.Pqueue.Timed.length h = List.length !model)

let prop_compact =
  QCheck.Test.make ~count
    ~name:"compact keeps exactly the accepted elements, in order"
    QCheck.(list (oneofl times))
    (fun ts ->
      let h = Sim.Pqueue.Timed.create ~dummy:(-1) () in
      List.iteri (fun i t -> Sim.Pqueue.Timed.push h ~time:t ~seq:i i) ts;
      let keep x = x mod 3 <> 0 in
      Sim.Pqueue.Timed.compact h ~keep;
      let expected =
        List.mapi (fun i t -> (t, i)) ts
        |> List.filter (fun (_, i) -> keep i)
        |> List.sort key_cmp |> List.map snd
      in
      let out = ref [] in
      while not (Sim.Pqueue.Timed.is_empty h) do
        out := Sim.Pqueue.Timed.pop_min h :: !out
      done;
      List.rev !out = expected)

let test_timed_empty () =
  let h = Sim.Pqueue.Timed.create ~dummy:0 () in
  Alcotest.check_raises "pop_min on empty"
    (Invalid_argument "Pqueue.Timed.pop_min: empty heap") (fun () ->
      ignore (Sim.Pqueue.Timed.pop_min h : int));
  Alcotest.check_raises "min_time on empty"
    (Invalid_argument "Pqueue.Timed.min_time: empty heap") (fun () ->
      ignore (Sim.Pqueue.Timed.min_time h : float))

(* ------------------------------------------------------------------ *)
(* Engine-level cancellation: lazy deletion + compaction accounting *)

(* 300 timers over 30 distinct times (10-way ties), two thirds cancelled
   up front — enough to trip the lazy compaction threshold. Survivors
   must fire exactly once, ordered by (time, schedule order). *)
let test_engine_cancel_compact () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  let handles =
    Array.init 300 (fun i ->
        Sim.Engine.schedule_at e
          (float_of_int (i mod 30))
          (fun () -> fired := i :: !fired))
  in
  Array.iteri (fun i h -> if i mod 3 <> 0 then Sim.Engine.cancel h) handles;
  (* cancel is idempotent: a second pass must not skew the census *)
  Array.iteri (fun i h -> if i mod 3 <> 0 then Sim.Engine.cancel h) handles;
  Alcotest.(check int) "pending counts only live events" 100
    (Sim.Engine.pending e);
  Sim.Engine.run e;
  let expected =
    List.init 300 (fun i -> i)
    |> List.filter (fun i -> i mod 3 = 0)
    |> List.sort (fun a b -> key_cmp (float_of_int (a mod 30), a)
                               (float_of_int (b mod 30), b))
  in
  Alcotest.(check (list int)) "survivors fire in (time, seq) order" expected
    (List.rev !fired);
  Alcotest.(check int) "queue drained" 0 (Sim.Engine.pending e)

let test_engine_cancel_after_fire () =
  let e = Sim.Engine.create () in
  let n = ref 0 in
  let h = Sim.Engine.schedule_at e 1. (fun () -> incr n) in
  Sim.Engine.run e;
  Alcotest.(check int) "fired once" 1 !n;
  (* cancelling a fired event is a no-op and must not corrupt the
     cancelled-events census behind [pending] *)
  Sim.Engine.cancel h;
  Sim.Engine.cancel h;
  Alcotest.(check int) "pending stays 0" 0 (Sim.Engine.pending e);
  ignore (Sim.Engine.schedule_at e 2. (fun () -> incr n) : Sim.Engine.handle);
  Alcotest.(check int) "new event counted" 1 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check int) "second fired" 2 !n

(* ------------------------------------------------------------------ *)
(* Engine ordering: the three merged queues against a naive reference

   The engine keeps cancellable events in a heap, same-instant wakeups in
   a ready ring and re-armable timers in an indexed heap. This property
   drives it with random programs — [schedule_at]/[cancel], processes
   that [yield], [delay 0], [delay d], [suspend] and get resumed, forks,
   and timers armed, re-armed and disarmed, all on a handful of tied
   instants — and replays each program on a reference that keeps one
   unsorted list and always runs the entry with the least final
   (time, seq). Every executed step logs its label, the clock, [pending]
   and [events_processed]; the two logs must be equal. *)

type block = B_yield | B_delay0 | B_delay of float | B_suspend

type instr =
  | Sched of float * int  (* schedule_at (now + dt) body b *)
  | Cancel of int  (* cancel handle k mod #handles *)
  | Arm of int * float  (* (re-)arm timer k after dt *)
  | Disarm of int
  | Wake of int  (* resume sleeper k mod #sleepers *)
  | Spawn of int  (* start process p *)

type program = {
  root : instr list;
  bodies : instr list array;
  timer_bodies : instr list array;
  procs : (instr list * block) list array;
  until : float option;
}

let n_timers = 3

let show_instr = function
  | Sched (dt, b) -> Printf.sprintf "sched(%g,b%d)" dt b
  | Cancel k -> Printf.sprintf "cancel%d" k
  | Arm (k, dt) -> Printf.sprintf "arm(t%d,%g)" k dt
  | Disarm k -> Printf.sprintf "disarm%d" k
  | Wake k -> Printf.sprintf "wake%d" k
  | Spawn p -> Printf.sprintf "spawn p%d" p

let show_block = function
  | B_yield -> "yield"
  | B_delay0 -> "delay0"
  | B_delay d -> Printf.sprintf "delay%g" d
  | B_suspend -> "suspend"

let show_program p =
  let body is = "[" ^ String.concat " " (List.map show_instr is) ^ "]" in
  let seg (is, b) = body is ^ " " ^ show_block b in
  String.concat "\n"
    ([ "root " ^ body p.root ]
    @ Array.to_list (Array.mapi (fun i b -> Printf.sprintf "b%d %s" i (body b)) p.bodies)
    @ Array.to_list
        (Array.mapi (fun i b -> Printf.sprintf "t%d %s" i (body b)) p.timer_bodies)
    @ Array.to_list
        (Array.mapi
           (fun i segs ->
             Printf.sprintf "p%d %s" i (String.concat "; " (List.map seg segs)))
           p.procs)
    @ [ (match p.until with None -> "no until" | Some h -> Printf.sprintf "until %g" h) ])

let program_arb =
  let open QCheck.Gen in
  let dt = oneofl [ 0.; 0.; 0.; 0.5; 1. ] in
  let instr =
    frequency
      [
        (4, map2 (fun d b -> Sched (d, b)) dt (int_bound 5));
        (2, map (fun k -> Cancel k) (int_bound 7));
        (3, map2 (fun k d -> Arm (k, d)) (int_bound (n_timers - 1)) dt);
        (1, map (fun k -> Disarm k) (int_bound (n_timers - 1)));
        (3, map (fun k -> Wake k) (int_bound 7));
        (2, map (fun p -> Spawn p) (int_bound 3));
      ]
  in
  let body = list_size (0 -- 4) instr in
  let block =
    frequency
      [
        (2, return B_yield);
        (2, return B_delay0);
        (1, map (fun d -> B_delay d) (oneofl [ 0.5; 1. ]));
        (2, return B_suspend);
      ]
  in
  let proc = list_size (1 -- 4) (pair body block) in
  let gen =
    map
      (fun (root, bodies, timer_bodies, procs, until) ->
        {
          root;
          bodies = Array.of_list bodies;
          timer_bodies = Array.of_list timer_bodies;
          procs = Array.of_list procs;
          until;
        })
      (tup5 (list_size (1 -- 6) instr)
         (list_repeat 6 body)
         (list_repeat n_timers body)
         (list_repeat 4 proc)
         (opt (oneofl [ 0.; 0.5; 1. ])))
  in
  QCheck.make ~print:show_program gen

(* What either implementation offers the shared interpreter. [sched]
   returns the event's cancel function; [spawn ~in_proc] forks from a
   process or spawns from a bare event. *)
type ops = {
  now : unit -> float;
  pending : unit -> int;
  processed : unit -> int;
  sched : float -> (unit -> unit) -> unit -> unit;
  arm : int -> float -> unit;
  disarm : int -> unit;
  spawn : in_proc:bool -> int -> (instr list * block) list -> unit;
}

type world = {
  prog : program;
  mutable fuel : int;  (* bounds the scheduling, so every program halts *)
  mutable next_id : int;
  mutable handles : (unit -> unit) list;  (* cancel functions, newest first *)
  mutable sleepers : (unit -> unit) list;  (* wake functions, oldest first *)
  mutable log : (string * float * int * int) list;
}

let new_world prog =
  { prog; fuel = 60; next_id = 0; handles = []; sleepers = []; log = [] }

let record w ops label =
  w.log <- (label, ops.now (), ops.pending (), ops.processed ()) :: w.log

let fresh_id w =
  let id = w.next_id in
  w.next_id <- id + 1;
  id

let spend w =
  w.fuel > 0
  && begin
       w.fuel <- w.fuel - 1;
       true
     end

let rec exec_body w ops ~in_proc body = List.iter (exec_instr w ops ~in_proc) body

and exec_instr w ops ~in_proc = function
  | Sched (dt, b) ->
      if spend w then begin
        let id = fresh_id w in
        let cancel =
          ops.sched dt (fun () ->
              record w ops (Printf.sprintf "e%d" id);
              exec_body w ops ~in_proc:false w.prog.bodies.(b))
        in
        w.handles <- cancel :: w.handles
      end
  | Cancel k -> (
      match w.handles with
      | [] -> ()
      | hs -> (List.nth hs (k mod List.length hs)) ())
  | Arm (k, dt) -> if spend w then ops.arm k dt
  | Disarm k -> ops.disarm k
  | Wake k -> (
      match w.sleepers with
      | [] -> ()
      | ss ->
          let i = k mod List.length ss in
          let wake = List.nth ss i in
          w.sleepers <- List.filteri (fun j _ -> j <> i) ss;
          wake ())
  | Spawn p -> if spend w then ops.spawn ~in_proc (fresh_id w) w.prog.procs.(p)

let run_timer w ops k =
  record w ops (Printf.sprintf "t%d" k);
  exec_body w ops ~in_proc:false w.prog.timer_bodies.(k)

(* The engine under test. *)
let run_engine prog =
  let e = Sim.Engine.create () in
  let w = new_world prog in
  let rec ops =
    {
      now = (fun () -> Sim.Engine.current_time e);
      pending = (fun () -> Sim.Engine.pending e);
      processed = (fun () -> Sim.Engine.events_processed e);
      sched =
        (fun dt f ->
          let h = Sim.Engine.schedule_at e (Sim.Engine.current_time e +. dt) f in
          fun () -> Sim.Engine.cancel h);
      arm = (fun k dt -> Sim.Engine.arm_after (Lazy.force timers).(k) dt);
      disarm = (fun k -> Sim.Engine.disarm (Lazy.force timers).(k));
      spawn =
        (fun ~in_proc pid segs ->
          let body () = run_proc pid segs in
          if in_proc then Sim.Engine.spawn_child body else Sim.Engine.spawn e body);
    }
  and timers =
    lazy (Array.init n_timers (fun k -> Sim.Engine.timer e (fun _ -> run_timer w ops k)))
  and run_proc pid segs =
    List.iteri
      (fun i (body, blk) ->
        record w ops (Printf.sprintf "p%d.%d" pid i);
        exec_body w ops ~in_proc:true body;
        match blk with
        | B_yield -> Sim.Engine.yield ()
        | B_delay0 -> Sim.Engine.delay 0.
        | B_delay d -> Sim.Engine.delay d
        | B_suspend ->
            Sim.Engine.suspend (fun r ->
                w.sleepers <- w.sleepers @ [ (fun () -> Sim.Engine.resume r ()) ]))
      segs;
    record w ops (Printf.sprintf "p%d.end" pid)
  in
  exec_body w ops ~in_proc:false prog.root;
  (match prog.until with
  | Some h ->
      Sim.Engine.run ~until:h e;
      record w ops "until"
  | None -> ());
  Sim.Engine.run e;
  record w ops "end";
  (List.rev w.log, Sim.Engine.suspended e)

(* The reference: one unsorted list; every step scans it for the least
   (time, seq). Sequence numbers are drawn in scheduling order, as the
   engine draws them. *)
type rkind =
  | R_event of int * (unit -> unit)
  | R_timer of int
  | R_step of (unit -> unit)

type ritem = { rtime : float; rseq : int; kind : rkind }

let run_reference prog =
  let clock = ref 0. and seq = ref 0 and items = ref [] and n = ref 0 in
  let w = new_world prog in
  let push time kind =
    items := { rtime = time; rseq = !seq; kind } :: !items;
    incr seq
  in
  let remove p = items := List.filter (fun it -> not (p it.kind)) !items in
  let is_timer k = function R_timer j -> j = k | _ -> false in
  let rec ops =
    {
      now = (fun () -> !clock);
      pending = (fun () -> List.length !items);
      processed = (fun () -> !n);
      sched =
        (fun dt f ->
          let id = !seq in
          push (!clock +. dt) (R_event (id, f));
          fun () -> remove (function R_event (j, _) -> j = id | _ -> false));
      arm =
        (fun k dt ->
          remove (is_timer k);
          push (!clock +. dt) (R_timer k));
      disarm = (fun k -> remove (is_timer k));
      spawn = (fun ~in_proc:_ pid segs -> push !clock (R_step (step pid 0 segs)));
    }
  (* Segment [i] of process [pid]: its body, then its block, which
     queues the next segment as the engine would queue the
     continuation. *)
  and step pid i segs () =
    match List.nth_opt segs i with
    | None -> record w ops (Printf.sprintf "p%d.end" pid)
    | Some (body, blk) -> (
        record w ops (Printf.sprintf "p%d.%d" pid i);
        exec_body w ops ~in_proc:true body;
        let next = R_step (step pid (i + 1) segs) in
        match blk with
        | B_yield | B_delay0 -> push !clock next
        | B_delay d -> push (!clock +. d) next
        | B_suspend -> w.sleepers <- w.sleepers @ [ (fun () -> push !clock next) ])
  in
  let key it = (it.rtime, it.rseq) in
  let rec run until =
    match !items with
    | [] -> Option.iter (fun h -> clock := Float.max !clock h) until
    | first :: _ ->
        let it =
          List.fold_left (fun a b -> if compare (key b) (key a) < 0 then b else a) first !items
        in
        if match until with Some h -> it.rtime > h | None -> false then
          Option.iter (fun h -> clock := Float.max !clock h) until
        else begin
          items := List.filter (fun x -> x != it) !items;
          clock := it.rtime;
          incr n;
          (match it.kind with
          | R_event (_, f) | R_step f -> f ()
          | R_timer k -> run_timer w ops k);
          run until
        end
  in
  exec_body w ops ~in_proc:false prog.root;
  (match prog.until with
  | Some h ->
      run (Some h);
      record w ops "until"
  | None -> ());
  run None;
  record w ops "end";
  (List.rev w.log, List.length w.sleepers)

let prop_engine_order =
  QCheck.Test.make ~count ~name:"runs in naive (time, seq) order" program_arb
    (fun prog ->
      let got = run_engine prog and want = run_reference prog in
      if got <> want then begin
        let show (log, sleeping) =
          String.concat " "
            (List.map
               (fun (l, t, p, e) -> Printf.sprintf "%s@%g/p%d/e%d" l t p e)
               log)
          ^ Printf.sprintf " | %d asleep" sleeping
        in
        QCheck.Test.fail_reportf "engine:    %s\nreference: %s" (show got) (show want)
      end
      else true)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "pqueue"
    [
      qsuite "generic" [ prop_heapsort; prop_interleaved ];
      qsuite "timed" [ prop_timed; prop_compact ];
      qsuite "engine-order" [ prop_engine_order ];
      ( "regressions",
        [
          Alcotest.test_case "capacity released on drain" `Quick
            test_capacity_release;
          Alcotest.test_case "empty Timed raises" `Quick test_timed_empty;
        ] );
      ( "engine-cancel",
        [
          Alcotest.test_case "mass cancel + compaction" `Quick
            test_engine_cancel_compact;
          Alcotest.test_case "cancel after fire" `Quick
            test_engine_cancel_after_fire;
        ] );
    ]
