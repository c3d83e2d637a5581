(* The float bookkeeping, in an all-float record so that its stores are
   flat: a [mutable float] field of a mixed record, or a [float ref],
   would box a fresh float on every store. *)
type acct = {
  mutable last_update : float;
  mutable work_delivered : float;
  (* the demand [consume] hands to [arrive] through [Engine.suspend] *)
  mutable arriving : float;
}

(* Resident jobs live in parallel arrays in arrival order: [rem.(i)] is
   job [i]'s remaining demand and [res.(i)] the resumer that wakes its
   process; only [0, n) is live. Slots at and past [n] may hold resumers
   that already fired; a fired resumer's continuation has been consumed,
   so they pin no fiber. *)
type jobs = {
  engine : Engine.t;
  cores : int;
  speed : float;
  mutable rem : float array;
  mutable res : unit Engine.resumer array;
  mutable n : int;
  acct : acct;
  mutable n_completed : int;
}

type t = {
  jobs : jobs;
  completion : Engine.timer;
  (* preallocated [Engine.suspend] registration, so a consume allocates
     no closure *)
  arrive : unit Engine.resumer -> unit;
  observe : (wait:float -> depth:int -> unit) option;
}

let eps = 1e-12

(* [Float.min]/[Float.max] restated so they inline into the loops below:
   an out-of-line call would box every argument and result. Same
   definitions, so the same bits, NaN and signed zeros included. *)
let[@inline] fmin (x : float) (y : float) =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if Float.is_nan y then y else x
  else if Float.is_nan x then x
  else y

let[@inline] fmax (x : float) (y : float) =
  if y > x || ((not (Float.sign_bit y)) && Float.sign_bit x) then
    if Float.is_nan x then x else y
  else if Float.is_nan y then y
  else x

(* Per-job service rate with the current multiprogramming level. *)
let[@inline] rate j =
  if j.n = 0 then 0.
  else j.speed *. fmin 1.0 (float_of_int j.cores /. float_of_int j.n)

(* Charge elapsed wall time against every resident job. *)
let advance j =
  let now = Engine.current_time j.engine in
  let dt = now -. j.acct.last_update in
  let n = j.n in
  if dt > 0. && n > 0 then begin
    let served = dt *. rate j in
    let rem = j.rem in
    for i = 0 to n - 1 do
      rem.(i) <- fmax 0. (rem.(i) -. served)
    done;
    j.acct.work_delivered <-
      j.acct.work_delivered +. (served *. float_of_int n)
  end;
  j.acct.last_update <- now

(* Re-arm the completion timer for the job that finishes first. *)
let reschedule j completion =
  let n = j.n in
  if n = 0 then Engine.disarm completion
  else begin
    let rem = j.rem in
    let min_rem = ref infinity in
    for i = 0 to n - 1 do
      min_rem := fmin !min_rem rem.(i)
    done;
    Engine.arm_after completion (fmax 0. (!min_rem /. rate j))
  end

let complete j completion =
  advance j;
  let rem = j.rem and res = j.res and n = j.n in
  (* Wake finished jobs newest first, then close the gaps without
     reordering the survivors. Resumers only queue their continuations,
     so nothing runs in between. *)
  for i = n - 1 downto 0 do
    if rem.(i) <= eps then Engine.resume res.(i) ()
  done;
  let live = ref 0 in
  for i = 0 to n - 1 do
    if not (rem.(i) <= eps) then begin
      rem.(!live) <- rem.(i);
      res.(!live) <- res.(i);
      incr live
    end
  done;
  j.n <- !live;
  j.n_completed <- j.n_completed + (n - !live);
  reschedule j completion

let arrive j completion resume =
  advance j;
  let n = j.n in
  let cap = Array.length j.rem in
  if n = cap then begin
    let ncap = if cap = 0 then 8 else 2 * cap in
    let rem = Array.make ncap 0. and res = Array.make ncap resume in
    Array.blit j.rem 0 rem 0 n;
    Array.blit j.res 0 res 0 n;
    j.rem <- rem;
    j.res <- res
  end;
  j.rem.(n) <- j.acct.arriving;
  j.res.(n) <- resume;
  j.n <- n + 1;
  reschedule j completion

let create ?(speed = 1.0) ?observe engine ~cores =
  if cores < 1 then invalid_arg "Cpu.create: cores must be >= 1";
  if speed <= 0. then invalid_arg "Cpu.create: speed must be positive";
  let jobs =
    {
      engine;
      cores;
      speed;
      rem = [||];
      res = [||];
      n = 0;
      acct =
        {
          last_update = Engine.current_time engine;
          work_delivered = 0.;
          arriving = 0.;
        };
      n_completed = 0;
    }
  in
  let completion = Engine.timer engine (complete jobs) in
  { jobs; completion; arrive = arrive jobs completion; observe }

let consume t demand =
  if demand < 0. then invalid_arg "Cpu.consume: negative demand";
  let j = t.jobs in
  if demand <= eps then begin
    (match t.observe with None -> () | Some f -> f ~wait:0. ~depth:j.n);
    Engine.yield ()
  end
  else begin
    let depth = j.n in
    j.acct.arriving <- demand;
    match t.observe with
    | None -> Engine.suspend t.arrive
    | Some f ->
        (* Contention delay: elapsed service time beyond the solo (one
           job, dedicated core) time for this demand. *)
        let t0 = Engine.now () in
        Engine.suspend t.arrive;
        let solo = demand /. j.speed in
        f ~wait:(fmax 0. (Engine.now () -. t0 -. solo)) ~depth
  end

let active_jobs t = t.jobs.n
let completed t = t.jobs.n_completed

let busy_time t =
  (* Include work delivered since the last bookkeeping update. *)
  let j = t.jobs in
  let now = Engine.current_time j.engine in
  let dt = now -. j.acct.last_update in
  let extra =
    if dt > 0. && j.n > 0 then dt *. rate j *. float_of_int j.n else 0.
  in
  j.acct.work_delivered +. extra

let utilisation t ~elapsed =
  if elapsed <= 0. then 0.
  else busy_time t /. (elapsed *. t.jobs.speed *. float_of_int t.jobs.cores)
