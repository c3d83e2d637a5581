(* The two halves of the benchmark for one workload and seed.

   [e2e] makes a seed's sub-runs with tracing off — the first in the fresh
   process, for its peak heap — pools their simulated results, then
   repeats the first sub-run until the time budget is spent; every run is
   timed between two runs of a calibration kernel. [layers] makes one
   traced and one untraced run of the same inputs, replays the trace
   through each layer's public functions, and writes the traced breakdown
   to its own file.

   Host time is process CPU time ([Sys.time]); simulated time is the
   engine's virtual clock. Every metric says which one it uses (README). *)

module CR = Swala.Cluster_runner
module K = Swala.Server.K
module J = Metrics.Json

type run = {
  result : CR.result;
  cluster : Swala.Server.cluster;
  trace : Workload.Trace.t;
  setup_s : float;  (** host CPU s from start to the first client request *)
  host_s : float;  (** host CPU s from the first client request to the end *)
  minor_words : float;  (** words allocated over [host_s] *)
  attempted : int;
  violations : string list;
}

let run_once ?(traced = false) (w : Workloads.t) ~seed ~n =
  let t0 = Sys.time () in
  let trace = w.trace ~seed ~n in
  let cfg = w.config ~seed in
  let cfg = if traced then { cfg with Swala.Config.trace = true } else cfg in
  let start = ref None in
  let result =
    CR.run cfg ~trace ~n_streams:w.n_streams ?router:w.router
      ~warmup:(fun c -> start := Some (c, Sys.time (), Gc.minor_words ()))
      ()
  in
  let m1 = Gc.minor_words () in
  let t1 = Sys.time () in
  let cluster, ts, m0 = Option.get !start in
  let attempted = Workload.Trace.length trace in
  let completed = Metrics.Sample.count result.response in
  {
    result;
    cluster;
    trace;
    setup_s = ts -. t0;
    host_s = t1 -. ts;
    minor_words = m1 -. m0;
    attempted;
    violations = Checks.violations ~attempted ~completed result.counters;
  }

let failures r =
  if r.violations <> [] then r.attempted
  else
    (Checks.account ~attempted:r.attempted
       ~completed:(Metrics.Sample.count r.result.response)
       r.result.counters)
      .failures

let digest r = Digest.to_hex (Digest.string (CR.result_to_json r.result))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* One metric: name, value, unit, and whether it is host or simulated
   time, a count, or an estimate — printed, never part of the JSON. *)
type metric = { name : string; value : float; unit_ : string; kind : string }

let m name unit_ kind value = { name; value; unit_; kind }

let print_metrics workload ms =
  List.iter
    (fun x ->
      Printf.printf "%-20s %-32s %18.6g %-10s %s\n" workload x.name x.value
        x.unit_ x.kind)
    ms

let metrics_json ms =
  J.Obj
    (List.map
       (fun x ->
         ( x.name,
           J.Obj [ ("value", J.Float x.value); ("unit", J.Str x.unit_) ] ))
       ms)

let result_line ~correct ~attempted ~failed ms =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool correct);
         ("attempted", J.Int attempted);
         ("failed", J.Int failed);
         ("metrics", metrics_json ms);
       ])

(* What one invocation measured and checked. *)
type outcome = {
  workload : string;
  problems : string list;  (** failed checks; any one fails the run *)
  attempted : int;
  failed : int;
  metrics : metric list;  (** printed and in the result line *)
  extra : metric list;  (** printed only *)
}

(* Print every metric, then the JSON result line; the exit code. A run
   that fails a check counts all its requests as failed. *)
let report o =
  List.iter
    (Printf.printf "CHECK FAILED: %s\n")
    (List.sort_uniq compare o.problems);
  print_metrics o.workload (o.metrics @ o.extra);
  let correct = o.problems = [] in
  let failed = if correct then o.failed else o.attempted in
  print_endline (result_line ~correct ~attempted:o.attempted ~failed o.metrics);
  if correct then 0 else 1

let quantile s q =
  match Metrics.Sample.quantile_opt s q with Some v -> v | None -> 0.

let hquantile h q =
  match Metrics.Histogram.quantile_opt h q with Some v -> v | None -> 0.

(* ------------------------------------------------------------------ *)
(* Host-speed calibration *)

(* On a shared host the CPU's speed swings by tens of percent over seconds
   to minutes, and the fastest of a few repeats still moved 12-30 %
   between invocations. So every timed run is bracketed by two runs of a
   fixed kernel, and its host time is scaled by [reference_kernel_s] over
   their mean: it reads as seconds on a host where the kernel takes
   [reference_kernel_s]. The scaled times carry noise from both sides, so
   the median of them is reported, not the minimum. The kernel builds and
   folds a 150k-entry [Map] — allocation-heavy with a live heap of
   megabytes, like the simulator — and uses no code of this repository,
   so a change to the simulator moves the run's time and never the
   yardstick. *)
let reference_kernel_s = 0.25

module Int_map = Map.Make (Int)

let kernel () =
  let m = ref Int_map.empty and x = ref 12345 in
  for i = 0 to 150_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    m := Int_map.add !x (float_of_int i, string_of_int i) !m
  done;
  let sum = Int_map.fold (fun _ (f, _) acc -> acc +. f) !m 0. in
  ignore (Sys.opaque_identity sum)

let time_kernel () =
  Gc.compact ();
  let t0 = Sys.time () in
  kernel ();
  Sys.time () -. t0

(* ------------------------------------------------------------------ *)
(* End to end *)

(* Repeats of the first sub-run after all sub-runs: they check that a run
   is deterministic and add host-time samples. *)
let min_repeats = 2

(* Simulated results pooled over a seed's sub-runs. *)
type pool = {
  cgi : Metrics.Sample.t;  (** CGI client response times, all sub-runs *)
  mutable requests : int;
  mutable makespan : float;
  mutable hits : int;
  mutable cgi_requests : int;
}

let pool_add p (x : run) =
  let r = x.result and get = Metrics.Counter.get x.result.counters in
  Array.iter (Metrics.Sample.add p.cgi) (Metrics.Sample.values r.cgi_response);
  p.requests <- p.requests + x.attempted;
  p.makespan <- p.makespan +. r.duration;
  p.hits <- p.hits + r.hits;
  p.cgi_requests <-
    p.cgi_requests + get K.cgi_execs + get K.hit_local + get K.hit_remote

(* The host-side measurements of one timed run. *)
type sample = {
  setup : float;
  host : float;
  kernel : float;  (** mean kernel time just before and just after *)
  words_per_req : float;
}

let e2e (w : Workloads.t) ~seed ~seconds ~n =
  let deadline = Unix.gettimeofday () +. seconds in
  let seeds = List.init w.sub_runs (Workloads.sub_seed ~seed) in
  let first = List.hd seeds in
  let pool =
    {
      cgi = Metrics.Sample.create ();
      requests = 0;
      makespan = 0.;
      hits = 0;
      cgi_requests = 0;
    }
  in
  let samples = ref [] and attempted = ref 0 and failed = ref 0 in
  let problems = ref [] and top_heap_words = ref 0 in
  (* Every run is timed between two kernel runs (the first run, in the
     fresh process, only after: its peak heap is measured before any
     kernel runs). Only summaries outlive a run, so each run's heap is
     garbage before the next one starts. *)
  let kernel_before = ref None in
  let timed s =
    if !kernel_before <> None then Gc.compact ();
    let x = run_once w ~seed:s ~n in
    if !kernel_before = None then
      top_heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    let after = time_kernel () in
    let kernel =
      match !kernel_before with Some b -> (b +. after) /. 2. | None -> after
    in
    kernel_before := Some after;
    samples :=
      {
        setup = x.setup_s;
        host = x.host_s;
        kernel;
        words_per_req = x.minor_words /. fi n;
      }
      :: !samples;
    attempted := !attempted + x.attempted;
    failed := !failed + failures x;
    problems := !problems @ x.violations;
    x
  in
  let base_digest = ref "" and sub_run_words = ref 0. in
  List.iter
    (fun s ->
      let x = timed s in
      if s = first then base_digest := digest x;
      sub_run_words := !sub_run_words +. x.minor_words;
      pool_add pool x)
    seeds;
  let rec repeat k =
    if k < min_repeats || Unix.gettimeofday () < deadline then begin
      if digest (timed first) <> !base_digest then
        problems := !problems @ [ "result digest differs between repeats" ];
      repeat (k + 1)
    end
  in
  repeat 0;
  let samples = List.rev !samples in
  let calibrated f =
    List.map (fun x -> f x *. reference_kernel_s /. x.kernel) samples
  in
  let series f =
    String.concat " " (List.map (fun x -> Printf.sprintf "%.4f" (f x)) samples)
  in
  Printf.printf
    "%s seed=%d sub-runs=%d x %d requests, timed runs=%d, pooled CGI \
     samples=%d, digest of sub-run 0=%s\n\
     %s host_s per timed run: %s\n\
     %s kernel_s per timed run: %s\n\
     %s alloc words/req per timed run: %s\n"
    w.name seed w.sub_runs n (List.length samples)
    (Metrics.Sample.count pool.cgi) !base_digest w.name
    (series (fun x -> x.host)) w.name (series (fun x -> x.kernel)) w.name
    (series (fun x -> x.words_per_req));
  {
    workload = w.name;
    problems = !problems;
    attempted = !attempted;
    failed = !failed;
    metrics =
      [
        m "req_per_host_s" "1/s" "host, median timed run, calibrated"
          (fi n /. median (calibrated (fun x -> x.host)));
        m "setup_s" "s" "host, median timed run, calibrated"
          (median (calibrated (fun x -> x.setup)));
        m "peak_heap_mb" "MiB" "host, fresh process"
          (fi !top_heap_words *. fi (Sys.word_size / 8) /. 1048576.);
        m "alloc_words_per_req" "words" "host, pooled sub-runs"
          (!sub_run_words /. fi pool.requests);
        m "sim_p50_s" "s" "simulated, pooled CGI requests"
          (quantile pool.cgi 0.5);
        m "sim_p999_s" "s" "simulated, pooled CGI requests"
          (quantile pool.cgi 0.999);
        m "sim_throughput_rps" "1/s" "simulated, pooled"
          (fi pool.requests /. pool.makespan);
        m "sim_hit_ratio" "ratio" "simulated, pooled"
          (ratio (fi pool.hits) (fi pool.cgi_requests));
        m "success_ratio" "ratio" "1 - error_rate"
          (1. -. (fi !failed /. fi !attempted));
      ];
    extra = [];
  }

(* ------------------------------------------------------------------ *)
(* Per layer *)

let phase_names =
  [
    ("path.handle_ms", "handle");
    ("path.dir_lookup_ms", "dir.lookup");
    ("path.dir_forward_ms", "dir.forward");
    ("path.hit_local_ms", "hit.local");
    ("path.fetch_remote_ms", "fetch.remote");
    ("path.cgi_exec_ms", "cgi.exec");
    ("path.insert_ms", "insert");
    ("path.broadcast_ms", "broadcast");
    ("path.respond_ms", "respond");
  ]

let histogram_json h =
  J.Obj
    [
      ("count", J.Int (Metrics.Histogram.count h));
      ("mean", J.Float (Metrics.Histogram.mean h));
      ("p50", J.Float (hquantile h 0.5));
      ("p99", J.Float (hquantile h 0.99));
      ( "max",
        J.Float
          (Option.value ~default:0. (Metrics.Histogram.max_opt h)) );
    ]

(* Time-valued metrics that some workload never exercises: they read the
   same (0, or a histogram bucket edge) on every run of it. They are
   printed and written to the trace file, but kept out of the result line,
   where a time that never varies is indistinguishable from a fake one. *)
let unreported =
  [
    "disk.wait_p99_s";
    "dir.rd_wait_p99_s";
    "dir.wr_wait_p99_s";
    "shard.fwd_wait_p50_s";
    "shard.fwd_wait_p99_s";
    "fresh.refresh_saved_ms";
    "path.dir_forward_ms";
    "path.broadcast_ms";
  ]

let write_trace_output ~path ~workload ~seed (b : Metrics.Trace.breakdown)
    waits metrics =
  let oc = open_out path in
  J.write oc
    (J.Obj
       [
         ("workload", J.Str workload);
         ("seed", J.Int seed);
         ("clock", J.Str "simulated seconds");
         ("requests", J.Int b.n_roots);
         ("total_time", J.Float b.total_time);
         ( "phases",
           J.List
             (List.map
                (fun (p : Metrics.Trace.phase) ->
                  J.Obj
                    [
                      ("phase", J.Str p.phase);
                      ("requests", J.Int p.requests);
                      ("occurrences", J.Int p.occurrences);
                      ("total", J.Float p.total);
                      ("mean", J.Float p.mean);
                      ("p50", J.Float p.p50);
                      ("p99", J.Float p.p99);
                      ("share", J.Float p.share);
                    ])
                b.phases) );
         ( "wait_histograms",
           J.Obj (List.map (fun (k, h) -> (k, histogram_json h)) waits) );
         ("metrics", metrics_json metrics);
       ]);
  output_char oc '\n';
  close_out oc

let layers (w : Workloads.t) ~seed ~seconds ~n ~out =
  let wall0 = Unix.gettimeofday () in
  let run_seed = Workloads.sub_seed ~seed 0 in
  (* The traced run goes first and keeps only its summaries, so that the
     untraced run, kept whole for its counts, shares the heap with neither. *)
  let traced = run_once ~traced:true w ~seed:run_seed ~n in
  let breakdown =
    Metrics.Trace.breakdown (Option.get traced.result.tracer) ~root:"request"
  in
  let waits = traced.result.wait_histograms in
  let traced_counters = traced.result.counters in
  let traced_response = Metrics.Sample.values traced.result.response in
  let traced_host = traced.host_s and traced_failed = failures traced in
  let traced_violations = traced.violations in
  Gc.compact ();
  let plain = run_once w ~seed:run_seed ~n in
  let r = plain.result and cfg = w.config ~seed:run_seed in
  let problems =
    plain.violations @ traced_violations
    @ (if Metrics.Counter.equal r.counters traced_counters then []
       else [ "tracing changed the counters" ])
    @
    if Metrics.Sample.values r.response = traced_response then []
    else [ "tracing changed the response times" ]
  in
  (* Run-side counts, from the untraced run. *)
  let get = Metrics.Counter.get r.counters in
  let nf = fi n in
  let per_req k = fi (get k) /. nf in
  let cluster = plain.cluster in
  let net = Swala.Server.net cluster in
  let nodes = Swala.Server.n_nodes cluster in
  let sum_nodes f =
    let acc = ref 0 in
    for i = 0 to nodes - 1 do
      acc := !acc + f (Swala.Server.node cluster i)
    done;
    !acc
  in
  let cpu_ops =
    sum_nodes (fun nd -> Sim.Cpu.completed (Swala.Server.node_cpu nd))
  in
  let lcache_hits, lcache_lookups =
    let h = ref 0 and l = ref 0 in
    for i = 0 to nodes - 1 do
      match
        Cache.Metadata_plane.shard
          (Swala.Server.node_plane (Swala.Server.node cluster i))
      with
      | Some { lcache = Some lc; _ } ->
          let pos, neg, miss, _ = Cache.Lookup_cache.stats lc in
          h := !h + pos + neg;
          l := !l + pos + neg + miss
      | Some { lcache = None; _ } | None -> ()
    done;
    (!h, !l)
  in
  let sharded = cfg.dir_mode = Swala.Config.Sharded in
  let stats = r.store_stats in
  let store_lookups = stats.hits + stats.misses in
  let cgi_requests = get K.hit_local + get K.hit_remote + get K.cgi_execs in
  let cache_lookups = cgi_requests - get K.uncacheable in
  let remote_attempts =
    get K.hit_remote + get K.false_hit + get K.fetch_timeouts
  in
  let rd, wr = r.dir_locks in
  let wait name =
    match List.assoc_opt name waits with
    | Some h -> hquantile h 0.99
    | None -> 0.
  in
  let phase key =
    match
      List.find_opt
        (fun (p : Metrics.Trace.phase) -> p.phase = key)
        breakdown.phases
    with
    | Some p -> p.mean *. 1000.
    | None -> 0.
  in
  let host_ns = plain.host_s *. 1e9 in
  (* Replays share the rest of the time budget. *)
  let inp =
    Replay.input plain.trace ~response_times:(Metrics.Sample.values r.response)
  in
  let n_measures = 16 in
  let budget =
    Float.max 0.05
      ((seconds -. (Unix.gettimeofday () -. wall0)) /. fi n_measures)
  in
  let gen =
    Replay.measure ~budget ~ops:n (fun () () ->
        ignore (w.trace ~seed:run_seed ~n : Workload.Trace.t))
  in
  let trace_words =
    fi (Obj.reachable_words (Obj.repr plain.trace)) /. nf
  in
  let store_lookup, store_insert = Replay.store ~budget cfg inp in
  let dir_lookup, dir_insert = Replay.directory ~budget cfg inp in
  let ring = Replay.ring ~budget cfg inp in
  let st_probe, st_insert = Replay.shard_table ~budget cfg inp in
  let parse, render = Replay.http ~budget inp in
  let body, kb_per_exec = Replay.cgi_body ~budget inp in
  let add, quant, sample_words = Replay.sample ~budget inp in
  let engine = Replay.engine ~budget inp in
  let mailbox = Replay.mailbox ~budget inp in
  let cpu = Replay.cpu ~budget cfg inp in
  (* Host-share estimates: the layer's operation count in the run times
     its replay ns/op; a metadata plane the workload does not run counts
     no operations. *)
  let share ops ns = ratio (fi ops *. ns) host_ns in
  let replicated ops = if sharded then 0 else ops in
  let on_shards ops = if sharded then ops else 0 in
  let shard_probes =
    get K.shard_local_lookups + get K.shard_fwd_lookups
    + get K.shard_replica_hits
  in
  let sample_adds = (2 * Metrics.Sample.count r.response) + r.hits in
  let est = "host, estimate" in
  let layer_metrics =
    [
      m "engine.events_per_req" "events/req" "count" (fi r.n_events /. nf);
      m "engine.host_ns_per_event" "ns" "host, untraced run"
        (ratio host_ns (fi r.n_events));
      m "engine.words_per_event" "words" "host, untraced run"
        (ratio plain.minor_words (fi r.n_events));
      m "engine.spawn_delay_ns" "ns" "host, replay" engine.ns_per_op;
      m "net.msgs_per_req" "msgs/req" "count"
        (fi (Sim.Net.messages_sent net) /. nf);
      m "net.bytes_per_req" "B/req" "count" (fi (Sim.Net.bytes_sent net) /. nf);
      m "net.lost" "count" "count" (fi r.net_lost);
      m "cpu.util_mean" "ratio" "simulated"
        (Array.fold_left ( +. ) 0. r.utilisation
        /. fi (Array.length r.utilisation));
      m "cpu.wait_p99_s" "s" "simulated, traced run" (wait "cpu.wait");
      m "listen.wait_p99_s" "s" "simulated, traced run" (wait "listen.wait");
      m "disk.wait_p99_s" "s" "simulated, traced run" (wait "disk.wait");
      m "dir.rd_wait_p99_s" "s" "simulated, traced run" (wait "dir.rd_wait");
      m "dir.wr_wait_p99_s" "s" "simulated, traced run" (wait "dir.wr_wait");
      m "mailbox.send_recv_ns" "ns" "host, replay" mailbox.ns_per_op;
      m "cpu.consume_ns_k8" "ns" "host, replay" cpu.ns_per_op;
      m "store.lookups_per_req" "ops/req" "count" (fi store_lookups /. nf);
      m "store.local_hit_ratio" "ratio" "count" (Cache.Stats.hit_ratio stats);
      m "store.inserts_per_req" "ops/req" "count" (fi stats.inserts /. nf);
      m "store.evictions" "count" "count" (fi stats.evictions);
      m "store.lookup_ns" "ns" "host, replay" store_lookup.ns_per_op;
      m "store.insert_ns" "ns" "host, replay" store_insert.ns_per_op;
      m "store.words_per_insert" "words" "host, replay"
        store_insert.words_per_op;
      m "dir.info_msgs_per_req" "msgs/req" "count" (per_req K.info_msgs);
      m "dir.info_applied_per_req" "ops/req" "count" (per_req K.info_applied);
      m "dir.info_bytes_per_req" "B/req" "count" (per_req K.info_bytes);
      m "dir.locks_rd_per_req" "ops/req" "count" (fi rd /. nf);
      m "dir.locks_wr_per_req" "ops/req" "count" (fi wr /. nf);
      m "dir.false_hits" "count" "count" (fi (get K.false_hit));
      m "dir.false_misses" "count" "count"
        (fi (get K.false_miss_concurrent + get K.false_miss_duplicate));
      m "dir.remote_hit_success" "ratio" "count"
        (ratio (fi (get K.hit_remote)) (fi remote_attempts));
      m "dir.lookup_ns" "ns" "host, replay" dir_lookup.ns_per_op;
      m "dir.insert_ns" "ns" "host, replay" dir_insert.ns_per_op;
      m "shard.fwd_lookups_per_req" "ops/req" "count"
        (per_req K.shard_fwd_lookups);
      m "shard.lookup_msgs_per_req" "msgs/req" "count"
        (per_req K.dir_lookup_msgs);
      m "shard.lcache_hit_ratio" "ratio" "count"
        (ratio (fi lcache_hits) (fi lcache_lookups));
      m "shard.fwd_wait_p50_s" "s" "simulated" (hquantile r.forward_wait 0.5);
      m "shard.fwd_wait_p99_s" "s" "simulated" (hquantile r.forward_wait 0.99);
      m "shard.promotions" "count" "count" (fi (get K.hotspot_promotions));
      m "ring.owner_ns" "ns" "host, replay" ring.ns_per_op;
      m "shard_table.probe_ns" "ns" "host, replay" st_probe.ns_per_op;
      m "shard_table.insert_ns" "ns" "host, replay" st_insert.ns_per_op;
      m "fresh.refreshes" "count" "count" (fi (get K.refreshes));
      m "fresh.refresh_saved_ms" "ms" "simulated" (fi (get K.refresh_saved_ms));
      m "fresh.stale_served" "count" "count" (fi (get K.stale_served));
      m "fresh.staleness_p99_s" "s" "simulated" (hquantile r.staleness 0.99);
      m "fault.crashes" "count" "count" (fi (get K.crashes));
      m "fault.fetch_timeouts" "count" "count" (fi (get K.fetch_timeouts));
      m "fault.fetch_retries" "count" "count" (fi (get K.fetch_retries));
      m "fault.router_retries" "count" "count" (fi (get K.router_retries));
      m "ae.rounds" "count" "count" (fi (get K.anti_entropy_rounds));
      m "ae.pulled" "count" "count" (fi (get K.anti_entropy_pulled));
      m "dir.suspect_purged" "count" "count" (fi (get K.dir_suspect_purged));
      m "cgi.execs_per_req" "ops/req" "count" (per_req K.cgi_execs);
      m "cgi.exec_ratio" "ratio" "count"
        (ratio (fi (get K.cgi_execs)) (fi cgi_requests));
      m "cgi.body_ns_per_kb" "ns/KiB" "host, replay"
        (ratio body.ns_per_op kb_per_exec);
      m "cgi.body_words_per_exec" "words" "host, replay" body.words_per_op;
      m "http.parse_ns" "ns" "host, replay" parse.ns_per_op;
      m "http.parse_words" "words" "host, replay" parse.words_per_op;
      m "http.render_ns" "ns" "host, replay" render.ns_per_op;
      m "workload.gen_ns_per_req" "ns" "host, replay" gen.ns_per_op;
      m "workload.trace_words_per_req" "words" "host, reachable" trace_words;
      m "metrics.sample_add_ns" "ns" "host, replay" add.ns_per_op;
      m "metrics.quantile_ns" "ns" "host, replay" quant.ns_per_op;
      m "metrics.sample_words_per_obs" "words" "host, reachable" sample_words;
    ]
    @ List.map
        (fun (name, phase_name) ->
          m name "ms" "simulated, traced run" (phase phase_name))
        phase_names
    @ [
        m "path.hit_latency_p50_s" "s" "simulated" (quantile r.hit_latency 0.5);
        m "trace.overhead_ratio" "ratio" "host, traced / untraced run"
          (ratio traced_host plain.host_s);
        m "engine.est_host_share" "ratio" est
          (share (r.n_events / 2) engine.ns_per_op);
        m "mailbox.est_host_share" "ratio" est
          (share (Sim.Net.messages_sent net) mailbox.ns_per_op);
        m "cpu.est_host_share" "ratio" est (share cpu_ops cpu.ns_per_op);
        m "store.est_host_share" "ratio" est
          (share store_lookups store_lookup.ns_per_op
          +. share stats.inserts store_insert.ns_per_op);
        m "dir.est_host_share" "ratio" est
          (share (replicated cache_lookups) dir_lookup.ns_per_op
          +. share (replicated (get K.info_applied)) dir_insert.ns_per_op);
        m "ring.est_host_share" "ratio" est
          (share (on_shards (cache_lookups + get K.inserts)) ring.ns_per_op);
        m "shard_table.est_host_share" "ratio" est
          (share (on_shards shard_probes) st_probe.ns_per_op
          +. share (on_shards (get K.info_applied)) st_insert.ns_per_op);
        m "http.est_host_share" "ratio" est (share n parse.ns_per_op);
        m "cgi.est_host_share" "ratio" est
          (share (get K.cgi_execs + get K.refreshes) body.ns_per_op);
        m "metrics.est_host_share" "ratio" est
          (share sample_adds add.ns_per_op);
      ]
  in
  let path =
    Filename.concat out (Printf.sprintf "%s-seed%d-trace.json" w.name seed)
  in
  write_trace_output ~path ~workload:w.name ~seed breakdown waits layer_metrics;
  Printf.printf "%s seed=%d requests=%d traced breakdown: %s\n" w.name seed n
    path;
  let extra, metrics =
    List.partition (fun x -> List.mem x.name unreported) layer_metrics
  in
  {
    workload = w.name;
    problems;
    attempted = 2 * n;
    failed = failures plain + traced_failed;
    metrics;
    extra;
  }
