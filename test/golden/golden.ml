(* The behaviour gate: a corpus of tiny deterministic cluster runs whose
   metrics are committed next to this file. Each case writes
   [<name>.out] — the run's Cluster_runner metrics JSON flattened to one
   "path = value" line per leaf, followed by every node's counters — and
   the dune rules diff it against [<name>.expected]. A refactor that
   claims to change no simulated quantity must leave every file
   identical; an intended change is accepted with [dune promote].

   Cases are built in-process from [Config.make] because some settings
   (the strong protocol, [broadcast_latency]) have no CLI flag. One more
   case, [workload_traces], pins the trace generators themselves: one line
   per generated trace with its parameters and the MD5 of every item.
   Usage: [golden.exe [DIR]] writes every case into DIR (default "."). *)

module C = Swala.Config
module R = Swala.Cluster_runner
module J = Metrics.Json

let n_requests = 400

(* The CLI's "coop" mix, with a Zipf head so hot keys repeat often enough
   to exercise remote hits and hotspot promotion. *)
let coop_trace ~seed =
  Workload.Synthetic.coop ~seed ~n:n_requests ~n_unique:(n_requests / 4)
    ~n_hot:12 ~zipf_s:1.1 ~locality:0.08 ()

let crashes ~mtbf ~mttr =
  Sim.Fault.make ~node:{ Sim.Fault.mtbf; mttr } ~horizon:300. ()

let halves =
  {
    Sim.Fault.pname = "halves";
    groups = [ [ 0; 1 ]; [ 2; 3 ] ];
    cut_at = 5.;
    heal_at = 25.;
  }

(* The CLI's [--scenario mixed] preset over a 60 s envelope: flash crowd,
   diurnal pacing, three geo tiers, and rolling churn. *)
let mixed =
  let module S = Workload.Scenario in
  let duration = 60. in
  ( S.make ~duration
      ~flash:(S.flash_crowd ~at:(duration /. 4.) ~duration:(duration /. 4.) ())
      ~diurnal:(S.Sinusoid { period = duration; trough = 0.2 })
      ~tiers:
        [
          S.tier ~name:"metro" ~rtt:0.002 ~weight:6.;
          S.tier ~name:"regional" ~rtt:0.03 ~weight:3.;
          S.tier ~name:"far" ~rtt:0.12 ~weight:1.;
        ]
      (),
    Sim.Fault.make ~churn:(Sim.Fault.churn ~rate:0.2 ()) () )

(* Invalidate every /cgi-bin/query result mid-run, after preloading a
   few results on node 0 so the invalidation has announced entries to
   retract. *)
let invalidate_midrun cluster =
  for q = 0 to 3 do
    Swala.Server.preload cluster ~node:0
      (Http.Request.get (Printf.sprintf "/cgi-bin/query?k=%d" q))
      ~exec_time:1.0
  done;
  Sim.Engine.spawn_child (fun () ->
      Sim.Engine.delay 20.;
      ignore
        (Swala.Server.invalidate_script cluster ~script:"/cgi-bin/query" : int))

let cases =
  let coop = C.Cooperative and standalone = C.Standalone in
  let sharded = C.Sharded in
  (* Crash cases route through the failover front end, so streams pinned
     to a dead node keep exercising the cluster instead of collecting
     503s. *)
  let failover = Swala.Router.Per_stream in
  let case ?warmup ?router name cfg = (name, cfg, warmup, router) in
  [
    case "replicated_default" (C.make ~n_nodes:4 ~cache_mode:coop ~seed:1 ());
    case "replicated_batch_hints"
      (C.make ~n_nodes:4 ~cache_mode:coop ~batch_max:4
         ~batch_flush_interval:(Some 0.05) ~dir_hints:true ~seed:2 ());
    case "replicated_strong"
      (C.make ~n_nodes:3 ~cache_mode:coop ~consistency:C.Strong ~seed:3 ());
    case "replicated_broadcast_latency"
      (C.make ~n_nodes:4 ~cache_mode:coop ~broadcast_latency:(Some 0.2)
         ~seed:4 ());
    case "replicated_partition_ae"
      (C.make ~n_nodes:4 ~cache_mode:coop
         ~fault:(Some (Sim.Fault.make ~partitions:[ halves ] ()))
         ~anti_entropy_period:(Some 2.) ~fetch_timeout:(Some 0.5) ~seed:5 ());
    case "sharded_hotspot_crash" ~router:failover
      (C.make ~n_nodes:5 ~cache_mode:coop ~dir_mode:sharded
         ~hotspot_threshold:0.5 ~hotspot_window:2.0
         ~fault:(Some (crashes ~mtbf:40. ~mttr:4.))
         ~fetch_timeout:(Some 0.5) ~seed:6 ());
    case "sharded_no_lookup_cache"
      (C.make ~n_nodes:4 ~cache_mode:coop ~dir_mode:sharded
         ~shard_lookup_cache:0 ~seed:7 ());
    case "mixed_replicated" ~router:failover
      (C.make ~n_nodes:4 ~cache_mode:coop ~scenario:(Some (fst mixed))
         ~fault:(Some (snd mixed)) ~fetch_timeout:(Some 0.5) ~seed:8 ());
    case "mixed_sharded" ~router:failover
      (C.make ~n_nodes:4 ~cache_mode:coop ~dir_mode:sharded
         ~scenario:(Some (fst mixed)) ~fault:(Some (snd mixed))
         ~fetch_timeout:(Some 0.5) ~seed:8 ());
    case "adaptive_refresh"
      (C.make ~n_nodes:4 ~cache_mode:coop ~freshness:Cache.Freshness.Adaptive
         ~default_ttl:(Some 4.) ~refresh_budget:2. ~refresh_interval:0.5
         ~seed:9 ());
    case "telemetry"
      (C.make ~n_nodes:3 ~cache_mode:coop ~telemetry_interval:(Some 2.)
         ~slo_target:(Some 1.5) ~seed:10 ());
    case "trace"
      (C.make ~n_nodes:3 ~cache_mode:coop ~dir_hints:true ~trace:true
         ~seed:11 ());
    case "invalidate_script" ~warmup:invalidate_midrun
      (C.make ~n_nodes:3 ~cache_mode:coop ~seed:12 ());
    case "standalone_default_ttl"
      (C.make ~n_nodes:4 ~cache_mode:standalone ~default_ttl:(Some 2.)
         ~seed:13 ());
    case "standalone_sharded_crash"
      (C.make ~n_nodes:4 ~cache_mode:standalone ~dir_mode:sharded
         ~fault:(Some (crashes ~mtbf:40. ~mttr:10.))
         ~fetch_timeout:(Some 0.5) ~seed:3 ());
  ]

(* One line per JSON leaf, keyed by its path. The flight recorder's
   [gc.*] probes read the host allocator, not the simulation, so they are
   left out: they change with the build, never with the simulated run. *)
let rec flatten buf path = function
  | J.Obj fields ->
      List.iter
        (fun (k, v) -> flatten buf (if path = "" then k else path ^ "." ^ k) v)
        fields
  | J.List items ->
      List.iteri (fun i v -> flatten buf (Printf.sprintf "%s[%d]" path i) v) items
  | leaf ->
      if not (String.starts_with ~prefix:"timelines.series.gc." path) then
        Printf.bprintf buf "%s = %s\n" path (J.to_string leaf)

let render (r : R.result) =
  let buf = Buffer.create 4096 in
  (match J.of_string (R.result_to_json r) with
  | Ok json -> flatten buf "" json
  | Error e -> failwith ("golden: metrics JSON does not parse: " ^ e));
  Array.iteri
    (fun i counters ->
      List.iter
        (fun name ->
          Printf.bprintf buf "node%d.%s = %d\n" i name
            (Metrics.Counter.get counters name))
        (Metrics.Counter.names counters))
    r.R.per_node_counters;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Generator identity *)

(* Every field of an item, the demand in hexadecimal so no float is
   rounded: two traces render alike only if they are structurally equal. *)
let render_item buf (item : Workload.Trace.item) =
  match item.Workload.Trace.kind with
  | Workload.Trace.File { path; bytes } ->
      Printf.bprintf buf "%d F %s %d\n" item.Workload.Trace.id path bytes
  | Workload.Trace.Cgi { script; args; demand; out_bytes } ->
      Printf.bprintf buf "%d C %s %s %h %d\n" item.Workload.Trace.id script
        (String.concat "&" (List.map (fun (k, v) -> k ^ "=" ^ v) args))
        demand out_bytes

let trace_digest trace =
  let buf = Buffer.create 65536 in
  List.iter (render_item buf) trace;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* A churn-style flash crowd (perfbench's churn-replicated-32 preset)
   applied to a coop trace paced evenly over the scenario, the way the
   cluster runner rewrites a stream's items. *)
let crowd_stream ~seed =
  let module S = Workload.Scenario in
  let duration = 12. in
  let sc =
    S.make ~duration
      ~flash:
        (S.flash_crowd ~at:3. ~duration:3. ~decay:3. ~fraction:0.8 ~keys:8
           ~zipf_s:1.0 ~demand:0.02 ())
      ()
  in
  let trace =
    Workload.Synthetic.coop ~seed ~n:4000 ~n_unique:2800 ~n_hot:24
      ~zipf_s:1.1 ~demand:0.02 ()
  in
  let rng = Sim.Rng.create seed in
  let n = float_of_int (List.length trace) in
  List.map
    (fun (item : Workload.Trace.item) ->
      let now = duration *. float_of_int item.Workload.Trace.id /. n in
      Option.value (S.rewrite sc ~rng ~now item) ~default:item)
    trace

(* The benchmark's trace shapes (perfbench/workloads.ml) at its sub-run
   seeds, plus the all-miss and uncacheable generators. *)
let workload_traces () =
  let module Syn = Workload.Synthetic in
  let seeds = [ 7000; 7001; 7002 ] in
  List.concat_map
    (fun seed ->
      [
        ( Printf.sprintf "adl_scaled seed=%d n=20000" seed,
          fun () -> Syn.adl_scaled ~seed ~n:20_000 );
        ( Printf.sprintf
            "coop seed=%d n=20000 n_unique=5000 n_hot=24 zipf_s=1.1 \
             demand=0.005"
            seed,
          fun () ->
            Syn.coop ~seed ~n:20_000 ~n_unique:5_000 ~n_hot:24 ~zipf_s:1.1
              ~demand:0.005 () );
        ( Printf.sprintf
            "coop seed=%d n=10000 n_unique=7000 n_hot=24 zipf_s=1.1 \
             demand=0.02"
            seed,
          fun () ->
            Syn.coop ~seed ~n:10_000 ~n_unique:7_000 ~n_hot:24 ~zipf_s:1.1
              ~demand:0.02 () );
        ( Printf.sprintf "flash-crowd rewrite seed=%d n=4000" seed,
          fun () -> crowd_stream ~seed );
      ])
    seeds
  @ [
      ( "unique_cacheable n=500 demand=0.25",
        fun () -> Syn.unique_cacheable ~n:500 ~demand:0.25 );
      ("uncacheable n=500 demand=1", fun () -> Syn.uncacheable ~n:500 ~demand:1.0);
    ]

let write_workload_traces dir =
  Out_channel.with_open_bin
    (Filename.concat dir "workload_traces.out")
    (fun oc ->
      List.iter
        (fun (name, gen) ->
          Printf.fprintf oc "%s: %s\n" name (trace_digest (gen ())))
        (workload_traces ()))

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  write_workload_traces dir;
  List.iter
    (fun (name, cfg, warmup, router) ->
      let r =
        R.run cfg ~trace:(coop_trace ~seed:cfg.C.seed)
          ~n_streams:(2 * cfg.C.n_nodes) ?warmup ?router ()
      in
      Out_channel.with_open_bin
        (Filename.concat dir (name ^ ".out"))
        (fun oc -> output_string oc (render r)))
    cases
