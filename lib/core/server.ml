(* The request path (Figure 2's control flow), the plane-independent
   daemons, cluster construction and the fault schedule. Everything a
   metadata plane does lives in [Replicated_plane] or [Sharded_plane];
   this module asks a node's plane value, never the config, which plane
   it runs. *)

open Node

module K = K

type t = Node.t
type cluster = Node.cluster

let engine c = c.engine
let net c = c.net
let config c = c.cfg
let n_nodes c = Array.length c.nodes

let node c i =
  if i < 0 || i >= Array.length c.nodes then invalid_arg "Server.node: range";
  c.nodes.(i)

let node_counters nd = nd.counters
let node_store nd = nd.store

let node_plane nd =
  match nd.plane with
  | Some plane -> plane
  | None -> invalid_arg "Server.node_plane: the node is not cooperative"

let node_directory nd =
  match node_plane nd with
  | MP.Replicated d -> d
  | MP.Sharded _ -> invalid_arg "Server.node_directory: the node is sharded"
let node_cpu nd = nd.cpu
let node_info_mailbox nd = nd.endpoint.Cluster.Endpoint.info_mb

let merged_counters c =
  Array.fold_left
    (fun acc nd -> Metrics.Counter.merge acc nd.counters)
    (Metrics.Counter.create ()) c.nodes

let total_hits c =
  let m = merged_counters c in
  Metrics.Counter.get m K.hit_local + Metrics.Counter.get m K.hit_remote

(* The fault plan draws from its own generator (derived from the seed, not
   split off [root]) so that attaching a plan leaves every other random
   stream — and therefore every fault-free aspect of the run — unchanged. *)
let fault_seed_salt = 0x5DEECE66

(* Same isolation for anti-entropy peer choice: its generators are split
   off a second salted root (never off [root]), so enabling the daemon
   does not perturb workload, CPU or cache streams. *)
let anti_entropy_seed_salt = 0x0A17E57

(* And for the proactive-refresh daemon's demand/failure draws: a third
   salted root, so turning the daemon on re-executes entries without
   shifting any request-path random stream. *)
let refresh_seed_salt = 0x00F5E54A

let create_cluster ?client_extra_latency engine cfg ~registry
    ~n_client_endpoints =
  Config.validate cfg;
  let module H = Metrics.Histogram in
  let tracer =
    if cfg.Config.trace then
      Some
        (Metrics.Trace.create
           ~clock:(fun () -> Sim.Engine.current_time engine)
           ())
    else None
  in
  let waits =
    if cfg.Config.trace then
      Some
        {
          dir_rd_wait = H.create ();
          dir_wr_wait = H.create ();
          dir_queue = H.create ~bounds:H.depth_bounds ();
          listen_wait = H.create ();
          listen_depth = H.create ~bounds:H.depth_bounds ();
          cpu_wait = H.create ();
          cpu_queue = H.create ~bounds:H.depth_bounds ();
          disk_wait = H.create ();
        }
    else None
  in
  let cpu_observe =
    Option.map
      (fun w ~wait ~depth ->
        H.add w.cpu_wait wait;
        H.add w.cpu_queue (float_of_int depth))
      waits
  in
  let disk_observe =
    Option.map (fun w ~wait ~depth:_ -> H.add w.disk_wait wait) waits
  in
  let lock_observe =
    Option.map
      (fun w ~kind ~wait ~depth ->
        (match kind with
        | `Read -> H.add w.dir_rd_wait wait
        | `Write -> H.add w.dir_wr_wait wait);
        H.add w.dir_queue (float_of_int depth))
      waits
  in
  let listen_on_wait =
    Option.map (fun w dt -> H.add w.listen_wait dt) waits
  in
  let listen_on_depth =
    Option.map (fun w d -> H.add w.listen_depth (float_of_int d)) waits
  in
  let root = Sim.Rng.create cfg.Config.seed in
  let ae_root = Sim.Rng.create (cfg.Config.seed lxor anti_entropy_seed_salt) in
  let refresh_root =
    Sim.Rng.create (cfg.Config.seed lxor refresh_seed_salt)
  in
  let fault =
    Option.map
      (fun profile ->
        Sim.Fault.create profile
          ~rng:(Sim.Rng.create (cfg.Config.seed lxor fault_seed_salt))
          ~nodes:cfg.Config.n_nodes)
      cfg.Config.fault
  in
  (* The one place the configured plane is read: each cooperative node's
     plane value is built here, and everything after dispatches on that
     value. A standalone or cache-less node consults no directory, so it
     gets none. *)
  let make_plane =
    match (cfg.Config.cache_mode, cfg.Config.dir_mode) with
    | (Config.Standalone | Config.Disabled), _ -> fun ~cpu:_ () -> None
    | Config.Cooperative, Config.Replicated ->
        fun ~cpu () -> Some (Replicated_plane.create cfg ~cpu ?lock_observe ())
    | Config.Cooperative, Config.Sharded ->
        let ring = Sharded_plane.ring cfg in
        fun ~cpu () -> Some (Sharded_plane.create cfg ~ring ~cpu ?lock_observe ())
  in
  (* Geo-tiered clients: extra one-way latency on client endpoints only
     (endpoint n_nodes + s is client stream s); the cluster LAN keeps the
     base latency. Absent, the network path is byte-identical to before. *)
  let extra_latency =
    Option.map
      (fun arr ep ->
        let s = ep - cfg.Config.n_nodes in
        if s >= 0 && s < Array.length arr then arr.(s) else 0.)
      client_extra_latency
  in
  let net =
    Sim.Net.create ~latency:cfg.Config.net_latency ?extra_latency
      ~bandwidth:cfg.Config.net_bandwidth ~loss:cfg.Config.net_loss
      ~rng:(Sim.Rng.split root) ?fault engine
      ~n_endpoints:(cfg.Config.n_nodes + n_client_endpoints)
  in
  let nodes =
    Array.init cfg.Config.n_nodes (fun id ->
        let rng = Sim.Rng.split root in
        let clock () = Sim.Engine.current_time engine in
        let cpu =
          Sim.Cpu.create ~speed:cfg.Config.cpu_speed ?observe:cpu_observe
            engine ~cores:cfg.Config.cores_per_node
        in
        {
          id;
          cpu;
          disk = Sim.Disk.create ?observe:disk_observe engine;
          rng;
          ae_rng = Sim.Rng.split ae_root;
          refresh_rng = Sim.Rng.split refresh_root;
          listen =
            Sim.Mailbox.create ?on_wait:listen_on_wait
              ?on_depth:listen_on_depth ();
          endpoint = Cluster.Endpoint.make ~node:id;
          store =
            Cache.Store.create ~capacity:cfg.Config.cache_capacity
              ~policy:cfg.Config.policy ~clock ~rng:(Sim.Rng.split root) ();
          plane = make_plane ~cpu ();
          counters = Metrics.Counter.create ();
          fresh =
            (match cfg.Config.freshness with
            | Cache.Freshness.Fixed -> None
            | Cache.Freshness.Adaptive ->
                Some
                  (Cache.Freshness.create
                     ~min_ttl:cfg.Config.freshness_min_ttl
                     ~max_ttl:cfg.Config.freshness_max_ttl
                     ~penalty:cfg.Config.freshness_penalty
                     ~window:cfg.Config.freshness_window ()));
          refreshed = Hashtbl.create 64;
          in_flight = Hashtbl.create 64;
          batch_buf = [];
          active = 0;
          up = true;
          stop = false;
        })
  in
  let endpoints = Array.map (fun nd -> nd.endpoint) nodes in
  (match tracer with
  | None -> ()
  | Some tr ->
      Array.iter
        (fun nd ->
          Metrics.Trace.set_track_name tr nd.id
            (Printf.sprintf "node %d" nd.id))
        nodes;
      Metrics.Trace.set_track_name tr cfg.Config.n_nodes "clients");
  let hit_latency = Metrics.Sample.create () in
  let fwd_wait = Metrics.Histogram.create () in
  let staleness =
    Metrics.Histogram.create ~bounds:Metrics.Histogram.age_bounds ()
  in
  (* The flight recorder's probe set. Every probe is a pure read of
     already-maintained state — counters, histogram totals, engine
     internals — so sampling records values without perturbing any
     simulated quantity. (The sampler daemon itself does add engine
     events, which is why the plane is opt-in; see Config.) *)
  let telemetry =
    match cfg.Config.telemetry_interval with
    | None -> None
    | Some interval ->
        let reg = Metrics.Registry.create ~interval () in
        let health =
          Metrics.Health.create
            ~config:
              {
                Metrics.Health.default_config with
                slo_target = cfg.Config.slo_target;
                slo_objective = cfg.Config.slo_objective;
              }
            ~interval ()
        in
        let tel =
          {
            t_registry = reg;
            t_health = health;
            t_resp_n = 0.;
            t_resp_sum = 0.;
            t_stop = false;
          }
        in
        (* [Counter.get] reads without creating entries, so probing a
           counter that never fires leaves the counter set untouched. *)
        let sum key () =
          float_of_int
            (Array.fold_left
               (fun acc nd -> acc + Metrics.Counter.get nd.counters key)
               0 nodes)
        in
        let module R = Metrics.Registry in
        R.histogram reg "hit.ratio" (fun () ->
            (sum K.requests (), sum K.hit_local () +. sum K.hit_remote ()));
        R.histogram reg "response" (fun () -> (tel.t_resp_n, tel.t_resp_sum));
        R.counter reg "info.rate" (sum K.info_msgs);
        R.counter reg "batch.rate" (sum K.batches_sent);
        R.counter reg "refresh.rate" (sum K.refreshes);
        R.counter reg "stale.rate" (sum K.stale_served);
        R.gauge reg "dir.entries" (fun () ->
            float_of_int
              (Array.fold_left
                 (fun acc nd ->
                   acc + Option.fold ~none:0 ~some:MP.entries nd.plane)
                 0 nodes));
        R.gauge reg "listen.depth" (fun () ->
            float_of_int
              (Array.fold_left
                 (fun acc nd -> acc + Sim.Mailbox.length nd.listen)
                 0 nodes));
        R.gauge reg "proto.backlog" (fun () ->
            float_of_int
              (Array.fold_left
                 (fun acc nd -> acc + Cluster.Endpoint.backlog nd.endpoint)
                 0 nodes));
        R.histogram reg "fwd.wait" (fun () ->
            ( float_of_int (Metrics.Histogram.count fwd_wait),
              Metrics.Histogram.total fwd_wait ));
        R.histogram reg "staleness" (fun () ->
            ( float_of_int (Metrics.Histogram.count staleness),
              Metrics.Histogram.total staleness ));
        (* Engine self-telemetry: raw queue occupancy vs capacity
           (event heap, ready ring and timer heap together), the
           lazy-cancellation census whose growth drives compaction, the
           event execution rate, and the allocation rate of the host
           program itself. *)
        R.gauge reg "engine.heap" (fun () ->
            float_of_int (Sim.Engine.heap_depth engine));
        R.gauge reg "engine.heap_cap" (fun () ->
            float_of_int (Sim.Engine.heap_capacity engine));
        R.gauge reg "engine.cancelled" (fun () ->
            float_of_int (Sim.Engine.cancelled_events engine));
        R.counter reg "engine.events.rate" (fun () ->
            float_of_int (Sim.Engine.events_processed engine));
        R.counter reg "gc.minor_words.rate" (fun () -> Gc.minor_words ());
        Array.iter
          (fun nd ->
            let pfx = Printf.sprintf "n%d." nd.id in
            (* busy CPU-seconds are cumulative, so the per-second rate of
               this counter is the node's utilisation over the window *)
            R.counter reg (pfx ^ "util") (fun () -> Sim.Cpu.busy_time nd.cpu);
            R.gauge reg (pfx ^ "active") (fun () -> float_of_int nd.active);
            R.counter reg
              (pfx ^ "hits.rate")
              (fun () ->
                float_of_int
                  (Metrics.Counter.get nd.counters K.hit_local
                  + Metrics.Counter.get nd.counters K.hit_remote)))
          nodes;
        Some tel
  in
  {
    engine;
    net;
    cfg;
    registry;
    nodes;
    endpoints;
    fault;
    fault_handles = [];
    tracer;
    waits;
    hit_latency;
    fwd_wait;
    staleness;
    telemetry;
  }

(* ------------------------------------------------------------------ *)
(* Tracing helpers.

   The current span id rides in the engine's fiber-local slot, so it
   survives blocking operations and is inherited by spawned children.
   With tracing off every helper is a direct call through to the wrapped
   work — no clock reads, no effects, no allocation — which is what keeps
   untraced runs byte-identical. *)

let tracer c = c.tracer

let wait_histograms c =
  match c.waits with
  | None -> []
  | Some w ->
      [
        ("dir.rd_wait", w.dir_rd_wait);
        ("dir.wr_wait", w.dir_wr_wait);
        ("dir.queue", w.dir_queue);
        ("listen.wait", w.listen_wait);
        ("listen.depth", w.listen_depth);
        ("cpu.wait", w.cpu_wait);
        ("cpu.queue", w.cpu_queue);
        ("disk.wait", w.disk_wait);
      ]

(* ------------------------------------------------------------------ *)
(* Response helpers *)

(* Static files are served with an empty in-memory body but a declared
   Content-Length; the transfer charge uses the declared size. *)
let file_response bytes =
  Http.Response.make
    ~headers:
      (Http.Headers.of_list
         [
           ("Content-Type", "text/html");
           ("Content-Length", string_of_int bytes);
         ])
    Http.Status.Ok

let transfer_bytes resp =
  let declared =
    match Http.Headers.content_length resp.Http.Response.headers with
    | Some n -> Stdlib.max n (Http.Response.body_size resp)
    | None -> Http.Response.body_size resp
  in
  Http.Response.wire_size resp - Http.Response.body_size resp + declared

let respond c nd env resp =
  with_span c nd "respond" (fun () ->
      Sim.Net.transfer c.net ~src:nd.id ~dst:env.client
        ~bytes:(transfer_bytes resp));
  Sim.Engine.resume env.resume resp

(* ------------------------------------------------------------------ *)
(* Cache operations *)

(* Per-request cache treatment after composing the administrator rules
   (§4.1's configuration file) with script flags and server defaults.
   The TTL is either fully determined here ([Ttl]: a rule override, the
   script's own TTL, or the fixed default) or deferred to the per-key
   adaptive controller at insert time ([Controller_ttl]) — the controller
   needs the measured execution cost, which only exists after the CGI
   ran. Explicit rule/script TTLs always beat either server-wide layer
   (Cache.Freshness.effective_ttl's precedence). *)
type ttl_choice = Ttl of float option | Controller_ttl

type cache_ctl = { attempt : bool; ttl : ttl_choice; threshold : float }

let cache_ctl_for c (script : Cgi.Script.t) meth =
  let rule = Rules.decide c.cfg.Config.rules script.Cgi.Script.name in
  let attempt =
    script.Cgi.Script.cacheable && rule.Rules.cacheable
    && Http.Meth.equal meth Http.Meth.Get
    && c.cfg.Config.cache_mode <> Config.Disabled
  in
  let ttl =
    match c.cfg.Config.freshness with
    | Cache.Freshness.Fixed ->
        Ttl
          (Cache.Freshness.effective_ttl ~rule:rule.Rules.ttl
             ~script:script.Cgi.Script.ttl ~default:c.cfg.Config.default_ttl)
    | Cache.Freshness.Adaptive -> (
        match
          Cache.Freshness.effective_ttl ~rule:rule.Rules.ttl
            ~script:script.Cgi.Script.ttl ~default:None
        with
        | Some _ as t -> Ttl t
        | None -> Controller_ttl)
  in
  let threshold =
    Option.value rule.Rules.threshold ~default:c.cfg.Config.cache_threshold
  in
  { attempt; ttl; threshold }

(* Drop one of this node's results from its plane: the local half runs
   now, and the returned Delete is the announcement to send. *)
let retract nd key =
  (match nd.plane with
  | Some (MP.Replicated d) -> Replicated_plane.retract nd d key
  | Some (MP.Sharded _) (* the announcement itself updates the home *)
  | None ->
      ());
  Cluster.Msg.Delete { node = nd.id; key }

(* Send directory updates through the node's plane: a broadcast (possibly
   batched) or a unicast to the key's acting home. A node without a plane
   announces nothing. *)
let announce c nd msgs =
  match nd.plane with
  | None -> ()
  | Some plane ->
      List.iter
        (fun msg ->
          (match msg with
          | Cluster.Msg.Insert _ -> incr nd K.broadcast_insert
          | Cluster.Msg.Delete _ -> incr nd K.broadcast_delete
          | Cluster.Msg.Promote _ | Cluster.Msg.Demote _ | Cluster.Msg.Batch _
            ->
              invalid_arg "Server.announce: only inserts and deletes originate");
          match plane with
          | MP.Replicated _ -> Replicated_plane.announce c nd msg
          | MP.Sharded s -> Sharded_plane.announce c nd s msg)
        msgs

(* Insert a freshly computed result: local store + the plane's local
   directory effect; returns the announcements to send after the client
   is answered (Figure 2 broadcasts after returning the result). *)
let insert_result c nd ~key ~body ~exec_time ttl =
  with_span c nd "insert" @@ fun () ->
  Sim.Cpu.consume nd.cpu c.cfg.Config.insert_cost;
  let created = now () in
  (* Feed the controller before asking it: this very recomputation is an
     observation of the key's cost and update gap. *)
  Option.iter
    (fun f ->
      Cache.Freshness.observe_insert f ~now:created ~cost:exec_time key)
    nd.fresh;
  let ttl =
    match ttl with
    | Ttl t -> t
    | Controller_ttl -> (
        match nd.fresh with
        | Some f -> Some (Cache.Freshness.ttl f ~now:created ~cost:exec_time key)
        | None ->
            (* Unreachable: Controller_ttl is only emitted under Adaptive,
               which allocates the tracker. Fall back to the fixed layer. *)
            c.cfg.Config.default_ttl)
  in
  let meta =
    Cache.Meta.make ~key ~owner:nd.id ~size:(Http.Body.length body) ~exec_time
      ~created
      ~expires:(Option.map (fun t -> created +. t) ttl)
  in
  let msgs =
    match nd.plane with
    | Some plane ->
        let evicted =
          match plane with
          | MP.Replicated d -> Replicated_plane.insert nd d meta body
          | MP.Sharded _ ->
              (* the home checks for a duplicate execution on arrival *)
              Cache.Store.insert_body nd.store meta body
        in
        List.map (fun (m : Cache.Meta.t) -> retract nd m.Cache.Meta.key) evicted
        @ [ Cluster.Msg.Insert meta ]
    | None when c.cfg.Config.cache_mode = Config.Disabled -> []
    | None ->
        ignore (Cache.Store.insert_body nd.store meta body : Cache.Meta.t list);
        []
  in
  incr nd K.inserts;
  msgs

(* ------------------------------------------------------------------ *)
(* CGI execution (Figure 2's "Exec CGI, tee results to file") *)

let exec_cgi c nd (script : Cgi.Script.t) req key =
  with_span c nd "cgi.exec"
    ~attrs:(fun () -> [ ("script", script.Cgi.Script.name) ])
  @@ fun () ->
  (match Hashtbl.find_opt nd.in_flight key with
  | Some n when n > 0 ->
      (* First kind of false miss: an identical request is already being
         executed on this node and we run it again anyway (§4.2). *)
      incr nd K.false_miss_concurrent;
      Hashtbl.replace nd.in_flight key (n + 1)
  | Some _ | None -> Hashtbl.replace nd.in_flight key 1);
  incr nd K.cgi_execs;
  let query = req.Http.Request.uri.Http.Uri.query in
  let demand = Cgi.Cost.demand_for script.Cgi.Script.cost nd.rng ~query in
  let out_bytes = Cgi.Cost.output_bytes_for script.Cgi.Script.cost ~query in
  Sim.Cpu.consume nd.cpu
    ((script.Cgi.Script.cost.Cgi.Cost.fork_exec
     *. c.cfg.Config.model.Config.cgi_overhead_factor)
    +. demand);
  (match Hashtbl.find_opt nd.in_flight key with
  | Some 1 -> Hashtbl.remove nd.in_flight key
  | Some n -> Hashtbl.replace nd.in_flight key (n - 1)
  | None -> ());
  let failed =
    script.Cgi.Script.failure_rate > 0.
    && Sim.Rng.float nd.rng < script.Cgi.Script.failure_rate
  in
  if failed then begin
    incr nd K.cgi_failures;
    Error (Http.Response.error Http.Status.Internal_server_error "CGI failed")
  end
  else
    Ok (Cgi.Script.body script ~key ~bytes:out_bytes, demand)

(* Execute, optionally insert in the cache, respond, then announce. *)
let exec_and_respond c nd env (script : Cgi.Script.t) key ~(ctl : cache_ctl) =
  match exec_cgi c nd script env.req key with
  | Error resp -> respond c nd env resp
  | Ok (body, exec_time) ->
      let msgs =
        if ctl.attempt && exec_time >= ctl.threshold then
          insert_result c nd ~key ~body ~exec_time ctl.ttl
        else begin
          if ctl.attempt then incr nd K.below_threshold;
          []
        end
      in
      Sim.Cpu.consume nd.cpu
        (c.cfg.Config.model.Config.per_byte_send
        *. float_of_int (Http.Body.length body));
      (* Figure 2 answers the client before broadcasting; under the strong
         protocol the whole point is that the reply implies every replica
         already knows, so the order flips. *)
      (match c.cfg.Config.consistency with
      | Config.Weak ->
          respond c nd env (Http.Response.ok_body body);
          announce c nd msgs
      | Config.Strong ->
          announce c nd msgs;
          respond c nd env (Http.Response.ok_body body))

(* ------------------------------------------------------------------ *)
(* Cache hit paths *)

(* Host-side freshness bookkeeping at a cache hit (either kind): sample
   the served result's age, count it stale when the adaptive controller
   admitted more age than the fixed default_ttl anchor would have, and
   credit the owner's latest proactive refresh with the execution it
   displaced (first hit after the refresh pops the pending credit). Pure
   observation — no simulated effects — so recording perturbs nothing. *)
let note_hit_freshness c nd (meta : Cache.Meta.t) =
  let age = Cache.Meta.age meta ~now:(now ()) in
  Metrics.Histogram.add c.staleness age;
  (match (nd.fresh, c.cfg.Config.default_ttl) with
  | Some _, Some anchor when age > anchor -> incr nd K.stale_served
  | _ -> ());
  let owner = meta.Cache.Meta.owner in
  if owner >= 0 && owner < Array.length c.nodes then begin
    let ond = c.nodes.(owner) in
    match Hashtbl.find_opt ond.refreshed meta.Cache.Meta.key with
    | Some saved ->
        Hashtbl.remove ond.refreshed meta.Cache.Meta.key;
        Metrics.Counter.add ond.counters K.refresh_saved_ms
          (int_of_float (Float.round (saved *. 1000.)))
    | None -> ()
  end

let serve_local c nd env ~t0 (entry : Cache.Store.entry) =
  incr nd K.hit_local;
  note_hit_freshness c nd entry.Cache.Store.meta;
  with_span c nd "hit.local" (fun () ->
      Sim.Cpu.consume nd.cpu c.cfg.Config.local_fetch_cost;
      (* The result file is recently used, hence in the OS buffer cache. *)
      Sim.Disk.read nd.disk ~bytes:entry.Cache.Store.meta.Cache.Meta.size
        ~cached:true;
      Sim.Cpu.consume nd.cpu
        (c.cfg.Config.model.Config.per_byte_send
        *. float_of_int (Http.Body.length entry.Cache.Store.body)));
  respond c nd env (Http.Response.ok_body entry.Cache.Store.body);
  Metrics.Sample.add c.hit_latency (now () -. t0)

let fetch_remote c nd env (script : Cgi.Script.t) key ~(ctl : cache_ctl) ~t0
    (meta : Cache.Meta.t) =
  let owner = meta.Cache.Meta.owner in
  let answer =
    with_span c nd "fetch.remote"
      ~attrs:(fun () -> [ ("owner", string_of_int owner) ])
    @@ fun () ->
    Sim.Cpu.consume nd.cpu c.cfg.Config.remote_fetch_cost;
    let span = span_of c in
    match c.cfg.Config.fetch_timeout with
    | None ->
        let reply = Sim.Mailbox.create () in
        Cluster.Broadcast.fetch c.net c.endpoints ~src:nd.id ~owner
          { Cluster.Msg.key; requester = nd.id; reply; span };
        Some (Sim.Mailbox.recv reply)
    | Some timeout ->
        let reply, retries =
          Cluster.Broadcast.fetch_sync ~span c.net c.endpoints ~src:nd.id
            ~owner ~timeout ~retries:c.cfg.Config.fetch_retries
            ~backoff:c.cfg.Config.fetch_backoff key
        in
        if retries > 0 then
          Metrics.Counter.add nd.counters K.fetch_retries retries;
        reply
  in
  match answer with
  | None ->
      (* Request or reply lost (or owner unreachable): give up on the
         remote copy and execute locally, like a false hit. Under fault
         injection the plane also treats the owner as suspect. *)
      incr nd K.fetch_timeouts;
      (match (c.fault, nd.plane) with
      | Some _, Some (MP.Replicated d) ->
          Replicated_plane.on_fetch_timeout nd d ~owner
      | Some _, Some (MP.Sharded s) ->
          Sharded_plane.on_fetch_timeout nd s ~owner ~key
      | None, _ | _, None -> ());
      exec_and_respond c nd env script key ~ctl
  | Some (Cluster.Msg.Hit { meta = served; body }) ->
      incr nd K.hit_remote;
      (* Use the owner's reply meta, not the directory's view: the entry
         may have been refreshed since the directory lookup. *)
      note_hit_freshness c nd served;
      Sim.Cpu.consume nd.cpu
        (c.cfg.Config.model.Config.per_byte_send
        *. float_of_int (Http.Body.length body));
      respond c nd env (Http.Response.ok_body body);
      Metrics.Sample.add c.hit_latency (now () -. t0)
  | Some (Cluster.Msg.Miss _) ->
      (* False hit: the entry vanished at the owner after our directory
         lookup. Execute locally, as in Figure 2. *)
      incr nd K.false_hit;
      (match nd.plane with
      | Some (MP.Sharded s) -> Sharded_plane.on_false_hit s ~key
      | Some (MP.Replicated _) | None -> ());
      exec_and_respond c nd env script key ~ctl

(* A directory answer naming this very node: serve from the store, or,
   when the store dropped the result (expiry race), let the plane repair
   its entry and execute. *)
let serve_self_or_repair c nd env script key ~ctl ~t0 ~repair =
  match Cache.Store.lookup nd.store key with
  | Some entry -> serve_local c nd env ~t0 entry
  | None ->
      incr nd K.dir_stale_self;
      (match nd.plane with
      | Some (MP.Replicated d) when repair -> Replicated_plane.retract nd d key
      | Some (MP.Sharded s) when repair -> Sharded_plane.repair_self nd s key
      | Some _ | None -> ());
      exec_and_respond c nd env script key ~ctl

(* ------------------------------------------------------------------ *)
(* Figure 2 control flow *)

let handle_cgi c nd env (script : Cgi.Script.t) =
  let key = Http.Request.cache_key env.req in
  let ctl = cache_ctl_for c script env.req.Http.Request.meth in
  if not ctl.attempt then begin
    incr nd K.uncacheable;
    exec_and_respond c nd env script key ~ctl
  end
  else begin
    (* Every cache-directed access feeds the key's rate estimate — hits
       and misses alike, since both are demand for a fresh result. *)
    Option.iter
      (fun f -> Cache.Freshness.observe_access f ~now:(now ()) key)
      nd.fresh;
    let t0 = now () in
    match nd.plane with
    | None -> (
        (* Standalone: the local store is the whole cache. *)
        match Cache.Store.lookup nd.store key with
        | Some entry -> serve_local c nd env ~t0 entry
        | None -> exec_and_respond c nd env script key ~ctl)
    | Some plane -> (
        let verdict =
          match plane with
          | MP.Replicated d -> Replicated_plane.lookup c nd d key
          | MP.Sharded s -> Sharded_plane.lookup c nd s key
        in
        match verdict with
        | Miss -> exec_and_respond c nd env script key ~ctl
        | Self { repair } ->
            serve_self_or_repair c nd env script key ~ctl ~t0 ~repair
        | Remote meta -> fetch_remote c nd env script key ~ctl ~t0 meta)
  end

let handle c nd env =
  with_span c nd "handle" ~parent:env.span
    ~attrs:(fun () -> [ ("path", env.req.Http.Request.uri.Http.Uri.path) ])
  @@ fun () ->
  incr nd K.requests;
  if not nd.up then begin
    (* The node is crashed; the connection front-end answers on its behalf
       with 503 rather than letting the client hang. *)
    incr nd K.rejected_down;
    respond c nd env
      (Http.Response.error Http.Status.Service_unavailable "node down")
  end
  else begin
  let active_at_arrival = nd.active in
  nd.active <- nd.active + 1;
  let model = c.cfg.Config.model in
  Sim.Cpu.consume nd.cpu
    (model.Config.accept_cost +. model.Config.per_request_fork
    +. (model.Config.contention_coeff *. float_of_int active_at_arrival));
  (match Cgi.Registry.resolve c.registry env.req.Http.Request.uri.Http.Uri.path with
  | None ->
      incr nd K.not_found;
      respond c nd env
        (Http.Response.error Http.Status.Not_found
           env.req.Http.Request.uri.Http.Uri.path)
  | Some (Cgi.Registry.Static_file { bytes; _ }) ->
      incr nd K.file_fetches;
      let cached = Sim.Rng.float nd.rng < c.cfg.Config.fs_cache_hit in
      Sim.Disk.read nd.disk ~bytes ~cached;
      Sim.Cpu.consume nd.cpu
        (model.Config.per_byte_send *. float_of_int bytes);
      respond c nd env (file_response bytes)
  | Some (Cgi.Registry.Cgi_script script) -> handle_cgi c nd env script);
  nd.active <- nd.active - 1
  end

(* ------------------------------------------------------------------ *)
(* Daemons (the cacher module's three threads, §4.1) *)

let request_thread c nd =
  let rec loop () =
    let env = Sim.Mailbox.recv nd.listen in
    handle c nd env;
    loop ()
  in
  loop ()

let rec info_updates = function
  | Cluster.Msg.Insert _ | Cluster.Msg.Delete _ | Cluster.Msg.Promote _
  | Cluster.Msg.Demote _ ->
      1
  | Cluster.Msg.Batch l -> List.fold_left (fun a u -> a + info_updates u) 0 l

(* The apply cost is per update: batching amortizes the envelope on the
   wire, not the directory work at the receiver. *)
let apply_envelope c nd envelope =
  Sim.Cpu.consume nd.cpu
    (float_of_int (info_updates envelope.Cluster.Msg.info)
    *. c.cfg.Config.info_apply_cost);
  (match nd.plane with
  | Some (MP.Replicated d) ->
      Replicated_plane.apply nd d envelope.Cluster.Msg.info
  | Some (MP.Sharded s) -> Sharded_plane.apply c nd s envelope.Cluster.Msg.info
  | None -> ());
  match envelope.Cluster.Msg.ack with
  | Some (sender, ack) ->
      incr nd K.acks_sent;
      Sim.Net.send c.net ~src:nd.id ~dst:sender ~bytes:32 ack ()
  | None -> ()

let info_daemon c nd =
  let rec loop () =
    let envelope = Sim.Mailbox.recv nd.endpoint.Cluster.Endpoint.info_mb in
    if not nd.up then loop ()  (* in flight across the crash instant: lost *)
    else begin
      (match c.tracer with
      | None ->
          (* Every peer applies every update: skip [with_span]'s closure
             and boxed arguments when nothing is traced. *)
          apply_envelope c nd envelope
      | Some _ ->
          (* Causally a child of the originating request, but applied off
             its critical path — hence async. *)
          with_span c nd "info.apply" ~parent:envelope.Cluster.Msg.span
            ~async:true (fun () -> apply_envelope c nd envelope));
      loop ()
    end
  in
  loop ()

let data_server c nd =
  let rec loop () =
    let fetch = Sim.Mailbox.recv nd.endpoint.Cluster.Endpoint.data_mb in
    if not nd.up then loop ()  (* crashed owner: requester's fetch times out *)
    else begin
    (* One thread per fetch, as in §4.1. Async: the serve runs on the
       owner concurrently with the requester's wait, so its time is
       already inside the requester's fetch.remote span. *)
    Sim.Engine.spawn_child (fun () ->
        with_span c nd "fetch.serve" ~parent:fetch.Cluster.Msg.span
          ~async:true
        @@ fun () ->
        Sim.Cpu.consume nd.cpu c.cfg.Config.data_server_cost;
        let reply_msg =
          match Cache.Store.lookup nd.store fetch.Cluster.Msg.key with
          | Some entry ->
              Sim.Disk.read nd.disk
                ~bytes:entry.Cache.Store.meta.Cache.Meta.size ~cached:true;
              Cluster.Msg.Hit
                { meta = entry.Cache.Store.meta; body = entry.Cache.Store.body }
          | None -> Cluster.Msg.Miss { key = fetch.Cluster.Msg.key }
        in
        Sim.Net.send c.net ~src:nd.id ~dst:fetch.Cluster.Msg.requester
          ~bytes:(Cluster.Msg.fetch_reply_bytes reply_msg)
          fetch.Cluster.Msg.reply reply_msg);
    loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Node crash and restart (fault injection).

   A crash is fail-stop with total cache-state loss: the store, the node's
   own directory table and the in-flight bookkeeping are wiped, and while
   down the node neither answers fetches nor applies directory updates
   (the network additionally drops its traffic). Requests already being
   processed run to completion — the simulator models losing the cache,
   not killing OS processes mid-request; this only makes the measured
   degradation an underestimate.

   A restart is cold: the node rejoins with empty tables and re-announces
   entries one by one as it repopulates (each insert broadcasts, exactly
   like a first boot) — the weak-consistency repair story, with no global
   resynchronisation. Peers may still hold stale entries owned by the
   crashed node; those are repaired lazily, either by the suspect purge on
   fetch-timeout exhaustion or by a Miss reply after the restart. *)

let crash nd =
  if nd.up then begin
    nd.up <- false;
    incr nd K.crashes;
    ignore (Cache.Store.clear nd.store : int);
    (* Replicated: wipe only this node's own directory table (peer tables
       are replicas of state that still exists elsewhere). Sharded: the
       whole node-local plane dies — shard partition, lookup cache and
       hotspot tracker. *)
    Option.iter (fun p -> ignore (MP.reset ~node:nd.id p : int)) nd.plane;
    Hashtbl.reset nd.in_flight;
    (* Buffered-but-unflushed directory updates die with the node; peers
       learn of the lost entries via false hits / anti-entropy, exactly
       like updates lost mid-broadcast. *)
    nd.batch_buf <- [];
    (* The freshness tracker's rate estimates describe a cache that no
       longer exists; restart from a cold controller, like the store. *)
    Option.iter Cache.Freshness.clear nd.fresh;
    Hashtbl.reset nd.refreshed
  end

let restart nd =
  if not nd.up then begin
    nd.up <- true;
    incr nd K.restarts
  end

(* After any liveness change each live node's plane gets to react. Only
   the sharded plane does (shard handoff): a crash moves the dead node's
   keys to new homes, a restart hands them back, and a heal must replace
   the point-to-point announcements the cut dropped. The replicated plane
   repairs lazily (suspect purge, anti-entropy). *)
let liveness_changed c ?died () =
  Array.iter
    (fun nd ->
      match nd.plane with
      | Some (MP.Sharded s) when nd.up -> Sharded_plane.handoff c nd s ?died ()
      | Some _ | None -> ())
    c.nodes

let purge_daemon c nd =
  let rec loop () =
    if not nd.stop then begin
      Sim.Engine.delay c.cfg.Config.purge_interval;
      (* Trim the freshness tracker's cold keys on the same cadence; pure
         host-side bookkeeping, so it perturbs nothing. *)
      Option.iter
        (fun f -> ignore (Cache.Freshness.sweep f ~now:(now ()) : int))
        nd.fresh;
      let expired = Cache.Store.purge_expired nd.store in
      List.iter
        (fun (m : Cache.Meta.t) ->
          incr nd K.purged;
          announce c nd [ retract nd m.Cache.Meta.key ])
        expired;
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Proactive refresh (the freshness plane's daemon).

   Once per [refresh_interval] each node scans its own store for entries
   expiring within two intervals and re-executes the hot, expensive ones
   off the critical path, spending at most [refresh_budget] executions
   per second (token bucket with one interval of carry). A refreshed
   entry is re-inserted with a fresh TTL (adaptive or fixed, like any
   insert) and re-announced to the directory, so the next client hit
   serves a young result instead of missing and paying the recomputation
   — refresh_saved_ms credits exactly those displaced executions
   (note_hit_freshness pops the pending credit on the first hit).

   Candidate order is deterministic: most expensive first (the biggest
   saving per token), then soonest-expiring, then key. "Hot" means
   accessed within [freshness_window]; an entry nobody touched recently
   would spend budget on a result nobody may ask for again. Demand and
   failure draws come from [refresh_rng] — its own salted stream — so
   the daemon never perturbs request-path randomness; with the budget at
   zero the daemon is not even spawned and runs are byte-identical to
   builds without it. *)

(* Cache keys are "METHOD /path?query" (Http.Request.cache_key); recover
   the URI so the refresh can redraw the script's demand and output size
   with the original query parameters. *)
let uri_of_cache_key key =
  match String.index_opt key ' ' with
  | None -> None
  | Some i -> (
      let target = String.sub key (i + 1) (String.length key - i - 1) in
      match Http.Uri.parse target with Ok uri -> Some uri | Error _ -> None)

(* Re-execute one near-expiry entry and re-insert its result. Returns
   [true] when a budget token was spent (the CGI actually ran). *)
let refresh_entry c nd key =
  match uri_of_cache_key key with
  | None -> false
  | Some uri -> (
      match Cgi.Registry.resolve c.registry uri.Http.Uri.path with
      | None | Some (Cgi.Registry.Static_file _) -> false
      | Some (Cgi.Registry.Cgi_script script) ->
          let ctl = cache_ctl_for c script Http.Meth.Get in
          if not ctl.attempt then false
          else begin
            with_span c nd "refresh.exec"
              ~attrs:(fun () -> [ ("script", script.Cgi.Script.name) ])
            @@ fun () ->
            let query = uri.Http.Uri.query in
            let demand =
              Cgi.Cost.demand_for script.Cgi.Script.cost nd.refresh_rng ~query
            in
            Sim.Cpu.consume nd.cpu
              ((script.Cgi.Script.cost.Cgi.Cost.fork_exec
               *. c.cfg.Config.model.Config.cgi_overhead_factor)
              +. demand);
            let failed =
              script.Cgi.Script.failure_rate > 0.
              && Sim.Rng.float nd.refresh_rng < script.Cgi.Script.failure_rate
            in
            (if (not failed) && demand >= ctl.threshold then begin
               let out_bytes =
                 Cgi.Cost.output_bytes_for script.Cgi.Script.cost ~query
               in
               let body = Cgi.Script.body script ~key ~bytes:out_bytes in
               let msgs = insert_result c nd ~key ~body ~exec_time:demand ctl.ttl in
               incr nd K.refreshes;
               Hashtbl.replace nd.refreshed key demand;
               announce c nd msgs
             end);
            true
          end)

let refresh_daemon c nd ~budget ~interval =
  let credit = ref 0. in
  let rec loop () =
    if not nd.stop then begin
      Sim.Engine.delay interval;
      if nd.up && not nd.stop then begin
        (* Token bucket: earn one interval's worth per tick, carry at most
           one more interval's worth, so an idle period cannot bank an
           unbounded burst. *)
        credit :=
          Float.min (2. *. budget *. interval) (!credit +. (budget *. interval));
        let hot_window = c.cfg.Config.freshness_window in
        let candidates =
          Cache.Store.expiring nd.store ~now:(now ()) ~horizon:(2. *. interval)
        in
        let worthwhile =
          List.filter
            (fun (cand : Cache.Store.candidate) ->
              cand.Cache.Store.c_hits > 0
              && now () -. cand.Cache.Store.c_last_access <= hot_window)
            candidates
          |> List.sort (fun (a : Cache.Store.candidate) b ->
                 let c =
                   Float.compare
                     b.Cache.Store.c_entry.Cache.Store.meta.Cache.Meta.exec_time
                     a.Cache.Store.c_entry.Cache.Store.meta.Cache.Meta.exec_time
                 in
                 if c <> 0 then c
                 else
                   let c =
                     Float.compare a.Cache.Store.c_expires
                       b.Cache.Store.c_expires
                   in
                   if c <> 0 then c
                   else
                     String.compare
                       a.Cache.Store.c_entry.Cache.Store.meta.Cache.Meta.key
                       b.Cache.Store.c_entry.Cache.Store.meta.Cache.Meta.key)
        in
        List.iter
          (fun (cand : Cache.Store.candidate) ->
            if !credit >= 1. && nd.up && not nd.stop then
              if
                refresh_entry c nd
                  cand.Cache.Store.c_entry.Cache.Store.meta.Cache.Meta.key
              then credit := !credit -. 1.)
          worthwhile
      end;
      loop ()
    end
  in
  loop ()

(* Cumulative cluster signals for the health monitor, read at each
   telemetry tick. All are O(nodes) counter/length reads. *)
let health_signals c =
  let hits = ref 0 and lookups = ref 0 and depth = ref 0 in
  Array.iter
    (fun nd ->
      hits :=
        !hits
        + Metrics.Counter.get nd.counters K.hit_local
        + Metrics.Counter.get nd.counters K.hit_remote;
      lookups := !lookups + Metrics.Counter.get nd.counters K.requests;
      depth := !depth + Sim.Mailbox.length nd.listen)
    c.nodes;
  {
    Metrics.Health.hits = float_of_int !hits;
    lookups = float_of_int !lookups;
    queue_depth = float_of_int !depth /. float_of_int (Array.length c.nodes);
    stale_count = float_of_int (Metrics.Histogram.count c.staleness);
    stale_total = Metrics.Histogram.total c.staleness;
  }

(* The flight recorder's sampler: one cluster-level daemon reading every
   probe and closing a health window each telemetry interval. Same
   shutdown discipline as the per-node daemons ([stop] raises the flag,
   the loop exits at its next wake-up, the queue drains). *)
let telemetry_daemon c tel ~interval =
  let rec loop () =
    if not tel.t_stop then begin
      Sim.Engine.delay interval;
      if not tel.t_stop then begin
        let now = Sim.Engine.now () in
        Metrics.Registry.sample tel.t_registry ~time:now;
        Metrics.Health.tick tel.t_health ~now (health_signals c)
      end;
      loop ()
    end
  in
  loop ()

let start c =
  (match c.telemetry with
  | None -> ()
  | Some tel ->
      let interval = Metrics.Registry.interval tel.t_registry in
      Sim.Engine.spawn c.engine (fun () -> telemetry_daemon c tel ~interval));
  Array.iter
    (fun nd ->
      for _ = 1 to c.cfg.Config.threads_per_node do
        Sim.Engine.spawn c.engine (fun () -> request_thread c nd)
      done;
      let refresh () =
        if c.cfg.Config.refresh_budget > 0. then
          Sim.Engine.spawn c.engine (fun () ->
              refresh_daemon c nd ~budget:c.cfg.Config.refresh_budget
                ~interval:c.cfg.Config.refresh_interval)
      in
      match c.cfg.Config.cache_mode with
      | Config.Disabled -> ()
      | Config.Standalone ->
          Sim.Engine.spawn c.engine (fun () -> purge_daemon c nd);
          refresh ()
      | Config.Cooperative ->
          Sim.Engine.spawn c.engine (fun () -> info_daemon c nd);
          Sim.Engine.spawn c.engine (fun () -> data_server c nd);
          Sim.Engine.spawn c.engine (fun () -> purge_daemon c nd);
          refresh ();
          (* The spawn order fixes the engine's event order. *)
          List.iter (Sim.Engine.spawn c.engine)
            (match nd.plane with
            | Some (MP.Replicated d) -> Replicated_plane.daemons c nd d
            | Some (MP.Sharded s) -> Sharded_plane.daemons c nd s
            | None -> []))
    c.nodes;
  (* Schedule the fault plan's crash/restart instants as plain events; the
     handles are kept so [stop] can cancel whatever has not yet fired. *)
  match c.fault with
  | None -> ()
  | Some f ->
      let now = Sim.Engine.current_time c.engine in
      Array.iter
        (fun nd ->
          List.iter
            (fun (down_at, up_at) ->
              if down_at >= now then
                c.fault_handles <-
                  Sim.Engine.schedule_at c.engine down_at (fun () ->
                      crash nd;
                      emit_instant c ~track:nd.id "crash";
                      liveness_changed c ~died:nd.id ())
                  :: c.fault_handles;
              if up_at >= now then
                c.fault_handles <-
                  Sim.Engine.schedule_at c.engine up_at (fun () ->
                      restart nd;
                      emit_instant c ~track:nd.id "restart";
                      liveness_changed c ())
                  :: c.fault_handles)
            (Sim.Fault.schedule f ~node:nd.id))
        c.nodes;
      (* Each partition's heal instant is observable: node 0 counts it, so
         experiments can report how many splits a run actually saw end. *)
      List.iter
        (fun (p : Sim.Fault.partition) ->
          if p.Sim.Fault.heal_at >= now then
            c.fault_handles <-
              Sim.Engine.schedule_at c.engine p.Sim.Fault.heal_at (fun () ->
                  incr c.nodes.(0) K.partitions_healed;
                  emit_instant c ~track:0 "partition.heal";
                  liveness_changed c ())
              :: c.fault_handles)
        (Sim.Fault.partitions f)

let stop c =
  Array.iter (fun nd -> nd.stop <- true) c.nodes;
  (match c.telemetry with None -> () | Some tel -> tel.t_stop <- true);
  (* Cancel pending crash/restart events: without this a fault plan whose
     horizon outlives the workload would keep the engine ticking long after
     the last client finished. *)
  List.iter Sim.Engine.cancel c.fault_handles;
  c.fault_handles <- []

let submit c ~client ~node req =
  if node < 0 || node >= Array.length c.nodes then
    invalid_arg "Server.submit: node out of range";
  let nd = c.nodes.(node) in
  let span = span_of c in
  Sim.Net.transfer c.net ~src:client ~dst:node
    ~bytes:(Http.Request.wire_size req);
  Sim.Engine.suspend (fun resume ->
      Sim.Mailbox.send nd.listen { req; client; resume; span })

let submit_wire c ~client ~node bytes =
  match Http.Request.parse bytes with
  | Error e ->
      Http.Response.to_wire (Http.Response.error Http.Status.Bad_request e)
  | Ok req -> Http.Response.to_wire (submit c ~client ~node req)

let preload c ~node req ~exec_time =
  if node < 0 || node >= Array.length c.nodes then
    invalid_arg "Server.preload: node out of range";
  let nd = c.nodes.(node) in
  let key = Http.Request.cache_key req in
  match Cgi.Registry.resolve c.registry req.Http.Request.uri.Http.Uri.path with
  | Some (Cgi.Registry.Cgi_script script) ->
      let out_bytes =
        Cgi.Cost.output_bytes_for script.Cgi.Script.cost
          ~query:req.Http.Request.uri.Http.Uri.query
      in
      let body = Cgi.Script.body script ~key ~bytes:out_bytes in
      let ctl = cache_ctl_for c script Http.Meth.Get in
      let msgs = insert_result c nd ~key ~body ~exec_time ctl.ttl in
      announce c nd msgs
  | Some (Cgi.Registry.Static_file _) | None ->
      invalid_arg "Server.preload: request does not resolve to a CGI script"

(* ------------------------------------------------------------------ *)
(* Invalidation (the paper's §4.2 future work: application-driven
   invalidation messages and source-monitoring invalidation) *)

let delete_everywhere c pred =
  let removed = ref 0 in
  Array.iter
    (fun nd ->
      let victims = Cache.Store.remove_matching nd.store pred in
      List.iter
        (fun (m : Cache.Meta.t) ->
          incr nd K.invalidations;
          removed := !removed + 1;
          announce c nd [ retract nd m.Cache.Meta.key ])
        victims)
    c.nodes;
  !removed

let invalidate c ~key = delete_everywhere c (String.equal key)

let invalidate_script c ~script =
  (* Cache keys are "METHOD /script?args"; match on the script path
     component so every argument combination is dropped. *)
  let pred key =
    match String.index_opt key ' ' with
    | None -> false
    | Some i ->
        let rest = String.sub key (i + 1) (String.length key - i - 1) in
        let path =
          match String.index_opt rest '?' with
          | None -> rest
          | Some j -> String.sub rest 0 j
        in
        String.equal path script
  in
  delete_everywhere c pred

let node_active nd = nd.active
let node_up nd = nd.up
let fault c = c.fault
let staleness_histogram c = c.staleness

(* Fold each node's host-side plane statistics (directory hints, lookup-
   cache outcomes) into its counters. Not cumulative-safe: call once,
   after the run, before reading counters (the runner does). *)
let record_plane_stats c =
  Array.iter
    (fun nd ->
      match nd.plane with
      | Some (MP.Replicated d) -> Replicated_plane.record_stats nd d
      | Some (MP.Sharded s) -> Sharded_plane.record_stats nd s
      | None -> ())
    c.nodes

let hit_latency c = c.hit_latency
let forward_wait_histogram c = c.fwd_wait

(* ------------------------------------------------------------------ *)
(* Flight recorder accessors *)

let telemetry_registry c =
  Option.map (fun tel -> tel.t_registry) c.telemetry

let health c = Option.map (fun tel -> tel.t_health) c.telemetry

(* Fed by the cluster runner at each request completion. Pure host-side
   accumulation (plus the health monitor's window counters), so the
   request path is untouched when telemetry is off and unperturbed when
   it is on. *)
let observe_response c dt =
  match c.telemetry with
  | None -> ()
  | Some tel ->
      tel.t_resp_n <- tel.t_resp_n +. 1.;
      tel.t_resp_sum <- tel.t_resp_sum +. dt;
      Metrics.Health.observe_response tel.t_health dt
