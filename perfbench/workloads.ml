(* The three closed-loop cluster workloads of the benchmark. Each client
   stream waits for its reply before sending the next request — the
   paper's WebStone / trace-replay model. Only the trace and the config
   depend on the seed; why each workload exists is in README.md.

   One benchmark seed stands for [sub_runs] independent cluster runs
   (sub-seeds [sub_seed ~seed j]). Which node comes to own a hot key, which
   files are popular and how large, when a crash meets a burst: each run
   draws these once, and they move a single run's quantiles by 10-40 %
   between seeds. Pooling several runs averages those draws out. *)

type t = {
  name : string;
  n_requests : int;  (** trace length of one run *)
  sub_runs : int;  (** runs pooled into the simulated metrics of a seed *)
  n_streams : int;
  router : Swala.Router.policy option;
  trace : seed:int -> n:int -> Workload.Trace.t;
  config : seed:int -> Swala.Config.t;
}

let adl_8 =
  {
    name = "adl-8";
    n_requests = 20_000;
    sub_runs = 12;
    n_streams = 16;
    router = None;
    trace = (fun ~seed ~n -> Workload.Synthetic.adl_scaled ~seed ~n);
    config =
      (fun ~seed ->
        Swala.Config.make ~n_nodes:8 ~cache_mode:Swala.Config.Cooperative
          ~threads_per_node:16 ~seed ());
  }

let hot_sharded_64 =
  {
    name = "hot-sharded-64";
    n_requests = 20_000;
    sub_runs = 16;
    n_streams = 256;
    router = None;
    trace =
      (fun ~seed ~n ->
        Workload.Synthetic.coop ~seed ~n ~n_unique:(max 24 (n / 4)) ~n_hot:24
          ~zipf_s:1.1 ~demand:0.005 ());
    config =
      (fun ~seed ->
        Swala.Config.make ~n_nodes:64 ~cache_mode:Swala.Config.Cooperative
          ~cache_threshold:0.001 ~dir_mode:Swala.Config.Sharded
          ~hotspot_threshold:1.0 ~hotspot_window:2.0 ~hotspot_replicas:3 ~seed
          ());
  }

let churn_replicated_32 =
  let scenario =
    Workload.Scenario.make ~duration:12.
      ~flash:
        (Workload.Scenario.flash_crowd ~at:3. ~duration:3. ~decay:3.
           ~fraction:0.8 ~keys:8 ~zipf_s:1.0 ~demand:0.02 ())
      ()
  in
  let fault =
    Sim.Fault.make
      ~churn:(Sim.Fault.churn ~rate:0.3 ~downtime:1.5 ~poisson:false ())
      ~horizon:120. ()
  in
  {
    name = "churn-replicated-32";
    n_requests = 10_000;
    sub_runs = 6;
    n_streams = 128;
    router = Some Swala.Router.Per_stream;
    trace =
      (fun ~seed ~n ->
        Workload.Synthetic.coop ~seed ~n ~n_unique:(n * 7 / 10) ~n_hot:24
          ~zipf_s:1.1 ~demand:0.02 ());
    config =
      (fun ~seed ->
        Swala.Config.make ~n_nodes:32 ~cache_mode:Swala.Config.Cooperative
          ~cache_threshold:0.001 ~scenario:(Some scenario) ~fault:(Some fault)
          ~fetch_timeout:(Some 0.25) ~fetch_retries:1
          ~freshness:Cache.Freshness.Adaptive ~default_ttl:(Some 8.)
          ~refresh_budget:4. ~anti_entropy_period:(Some 2.) ~seed ());
  }

let sub_seed ~seed j = (seed * 1000) + j
let all = [ adl_8; hot_sharded_64; churn_replicated_32 ]
let find name = List.find_opt (fun w -> w.name = name) all
