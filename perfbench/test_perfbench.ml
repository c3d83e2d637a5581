(* The benchmark's own tests: the accounting check rejects counters that do
   not conserve requests, every workload completes a small-size run with
   its checks passing, and every metric name is well formed.

     dune build --release @perfbench/perftest *)

open Perfbench
module K = Swala.Server.K

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let counters kvs =
  let c = Metrics.Counter.create () in
  List.iter (fun (k, v) -> Metrics.Counter.add c k v) kvs;
  c

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let names (o : Bench.outcome) =
  List.map (fun (x : Bench.metric) -> x.name) o.metrics

let () =
  let conserving =
    [
      (K.requests, 10); (K.hit_local, 3); (K.cgi_execs, 5); (K.file_fetches, 2);
    ]
  in
  check "conserving counters pass"
    (Checks.violations ~attempted:10 ~completed:10 (counters conserving) = []);
  check "a request that ends nowhere fails the check"
    (Checks.violations ~attempted:10 ~completed:10
       (counters [ (K.requests, 10); (K.hit_local, 3); (K.cgi_execs, 6) ])
    <> []);
  check "a request counted twice fails the check"
    (Checks.violations ~attempted:10 ~completed:10
       (counters ((K.hit_remote, 1) :: conserving))
    <> []);
  check "a missing response fails the check"
    (Checks.violations ~attempted:10 ~completed:9 (counters conserving) <> []);
  check "a retried 503 is one attempt"
    (Checks.violations ~attempted:10 ~completed:10
       (counters
          ((K.requests, 11) :: (K.rejected_down, 1) :: (K.router_retries, 1)
          :: List.tl conserving))
    = []);
  let e2e_names = ref [] in
  List.iter
    (fun (w : Workloads.t) ->
      let n = if w.name = "churn-replicated-32" then 1500 else 2000 in
      let o = Bench.e2e w ~seed:3 ~seconds:0. ~n in
      check (w.name ^ " e2e smoke run passes its checks")
        (o.problems = []
        && o.failed = 0
        && o.attempted = n * (w.sub_runs + Bench.min_repeats));
      check (w.name ^ " e2e metric names are well formed")
        (List.for_all valid_name (names o));
      if !e2e_names = [] then e2e_names := names o;
      check (w.name ^ " e2e reports the same metrics as every workload")
        (names o = !e2e_names);
      let o = Bench.layers w ~seed:3 ~seconds:0. ~n ~out:"." in
      check (w.name ^ " traced smoke run passes its checks")
        (o.problems = [] && o.failed = 0);
      check (w.name ^ " per-layer metric names are well formed")
        (List.for_all valid_name (names o)))
    Workloads.all;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
