(* What the request path and both metadata planes share: the node and
   cluster records, the counter names, and the tracing helpers. The
   request path lives in [Server]; each plane's transport lives in
   [Replicated_plane] or [Sharded_plane]. *)

module K = struct
  let requests = "requests"
  let file_fetches = "file_fetches"
  let cgi_execs = "cgi_execs"
  let hit_local = "hit_local"
  let hit_remote = "hit_remote"
  let uncacheable = "uncacheable"
  let false_hit = "false_hit"
  let false_miss_concurrent = "false_miss_concurrent"
  let false_miss_duplicate = "false_miss_duplicate"
  let inserts = "inserts"
  let below_threshold = "below_threshold"
  let broadcast_insert = "broadcast_insert"
  let broadcast_delete = "broadcast_delete"
  let info_applied = "info_applied"
  let purged = "purged"
  let not_found = "not_found"
  let cgi_failures = "cgi_failures"
  let dir_stale_self = "dir_stale_self"
  let invalidations = "invalidations"
  let acks_sent = "acks_sent"
  let fetch_timeouts = "fetch_timeouts"
  let fetch_retries = "fetch_retries"
  let crashes = "crashes"
  let restarts = "restarts"
  let rejected_down = "rejected_down"
  let dir_suspect_purged = "dir_suspect_purged"
  let partitions_healed = "partitions_healed"
  let anti_entropy_rounds = "anti_entropy_rounds"
  let anti_entropy_pulled = "anti_entropy_pulled"
  let router_retries = "router_retries"

  (* Batching layer: batches_sent counts Batch envelopes transmitted (only
     buffers of >= 2 updates are wrapped), batch_updates the updates they
     carried, batch_coalesced buffered updates overwritten by a newer
     update to the same key before transmission. info_msgs/info_bytes
     count actual directory-update unicasts (envelopes, not updates) and
     their wire bytes — the quantity batching is meant to shrink. *)
  let batches_sent = "batches_sent"
  let batch_updates = "batch_updates"
  let batch_coalesced = "batch_coalesced"
  let info_msgs = "info_msgs"
  let info_bytes = "info_bytes"

  (* Hint index: probes skipped thanks to hints, and lookups where every
     hinted probe missed (the false-hint fallback ran). *)
  let hint_probes_saved = "hint_probes_saved"
  let hint_false = "hint_false"

  (* Sharded metadata plane. Lookups split by how they were answered:
     at the key's home without a message, from a hotspot replica copy,
     or forwarded across the network. dir_lookup_msgs/bytes count the
     forwarded round trip's wire traffic (requests at the requester,
     replies at the home) so that info_msgs + dir_lookup_msgs is the
     plane's total metadata message count in either mode. Lookup-cache
     outcomes are folded in after the run (record_plane_stats), like
     hint stats. *)
  let shard_local_lookups = "shard_local_lookups"
  let shard_fwd_lookups = "shard_fwd_lookups"
  let shard_replica_hits = "shard_replica_hits"
  let dir_lookup_msgs = "dir_lookup_msgs"
  let dir_lookup_bytes = "dir_lookup_bytes"
  let dir_lookup_timeouts = "dir_lookup_timeouts"
  let lcache_pos_hits = "lcache_pos_hits"
  let lcache_neg_hits = "lcache_neg_hits"
  let lcache_evictions = "lcache_evictions"

  (* Hotspot replication: promotions/demotions decided at shard homes,
     replica_pushes the Promote unicasts those decisions sent. *)
  let hotspot_promotions = "hotspot_promotions"
  let hotspot_demotions = "hotspot_demotions"
  let hotspot_replica_pushes = "hotspot_replica_pushes"

  (* Shard handoff after a liveness change: entries re-announced to their
     new acting homes, and entries pruned because the ring moved them
     elsewhere. *)
  let shard_handoff_reannounced = "shard_handoff_reannounced"
  let shard_pruned = "shard_pruned"

  (* Freshness plane: refreshes counts proactive re-executions performed
     by the refresh daemon; refresh_saved_ms sums (in milliseconds) the
     execution time of refreshes that went on to serve at least one
     subsequent hit — the client-visible recomputation they displaced.
     stale_served counts hits (under the adaptive controller) whose age
     exceeded the fixed default_ttl anchor — the staleness the adaptive
     TTLs admitted that the fixed baseline would not have. *)
  let refreshes = "refreshes"
  let refresh_saved_ms = "refresh_saved_ms"
  let stale_served = "stale_served"
end

module MP = Cache.Metadata_plane

type env = {
  req : Http.Request.t;
  client : int;
  resume : Http.Response.t Sim.Engine.resumer;
  span : int;  (* submitting request's span id; 0 when tracing is off *)
}

(* Cluster-wide contention histograms, allocated only when tracing. The
   observers installed on the primitives merely record into these — they
   never delay, suspend or schedule, so enabling them cannot change any
   simulated quantity. *)
type waits = {
  dir_rd_wait : Metrics.Histogram.t;
  dir_wr_wait : Metrics.Histogram.t;
  dir_queue : Metrics.Histogram.t;
  listen_wait : Metrics.Histogram.t;
  listen_depth : Metrics.Histogram.t;
  cpu_wait : Metrics.Histogram.t;
  cpu_queue : Metrics.Histogram.t;
  disk_wait : Metrics.Histogram.t;
}

type t = {
  id : int;
  cpu : Sim.Cpu.t;
  disk : Sim.Disk.t;
  rng : Sim.Rng.t;
  ae_rng : Sim.Rng.t;  (* anti-entropy peer choice; own salted stream *)
  refresh_rng : Sim.Rng.t;
      (* proactive-refresh demand/failure draws; own salted stream so the
         daemon never perturbs the request-path draws from [rng] *)
  listen : env Sim.Mailbox.t;
  endpoint : Cluster.Endpoint.t;
  store : Cache.Store.t;
  plane : MP.t option;
      (* the node's metadata-plane state, built once at cluster creation:
         a full directory replica (Replicated_plane) or this node's shard
         partition plus lookup cache and hotspot tracker (Sharded_plane);
         [None] outside Config.Cooperative mode, where no node consults a
         directory. The server dispatches on this value and never on the
         config. *)
  counters : Metrics.Counter.t;
  fresh : Cache.Freshness.t option;
      (* per-key adaptive TTL controller; [Some] iff Config.freshness is
         Adaptive *)
  refreshed : (string, float) Hashtbl.t;
      (* key -> exec_time of its latest proactive refresh, popped by the
         first subsequent hit to credit refresh_saved_ms *)
  in_flight : (string, int) Hashtbl.t;  (* CGI keys being executed *)
  mutable batch_buf : Cluster.Msg.info list;
      (* the replicated plane's outbound directory updates awaiting a
         batched flush, newest first; empty whenever Config.batch_max <= 1
         and on the sharded plane *)
  mutable active : int;  (* requests currently being handled *)
  mutable up : bool;  (* false while crashed (fault injection) *)
  mutable stop : bool;
}

(* The flight recorder, allocated only when [Config.telemetry_interval]
   is set. Its probes are closures over the cluster's live state (node
   counters, engine internals, the host-side histograms), read together
   by one sampler daemon on the telemetry cadence. The response
   accumulator pair is the cumulative (count, sum) the [response] probe
   diffs per window; [t_stop] ends the sampler like a node's daemons. *)
type telemetry = {
  t_registry : Metrics.Registry.t;
  t_health : Metrics.Health.t;
  mutable t_resp_n : float;
  mutable t_resp_sum : float;
  mutable t_stop : bool;
}

type cluster = {
  engine : Sim.Engine.t;
  net : Sim.Net.t;
  cfg : Config.t;
  registry : Cgi.Registry.t;
  nodes : t array;
  endpoints : Cluster.Endpoint.t array;
  fault : Sim.Fault.t option;
  mutable fault_handles : Sim.Engine.handle list;
      (* pending crash/restart events, cancelled by [stop] *)
  tracer : Metrics.Trace.t option;
  waits : waits option;
  hit_latency : Metrics.Sample.t;
      (* cooperative-hit service times, directory lookup through response
         sent; recorded host-side only, so collecting it perturbs nothing *)
  fwd_wait : Metrics.Histogram.t;
      (* sharded plane: forwarded-lookup round-trip waits, timeouts
         included; host-side only, like hit_latency *)
  staleness : Metrics.Histogram.t;
      (* age of the served result at every cache hit (local and remote),
         seconds; host-side only, like hit_latency *)
  telemetry : telemetry option;
}

(* A plane's answer to "who caches key k?" for one request. [Self] means
   the directory names this node as the owner; [repair] says whether the
   plane wants its entry dropped when the store turns out to have lost
   the result (the owner's own view is authoritative), or whether a
   delete is already on its way (a forwarded answer). *)
type verdict = Miss | Self of { repair : bool } | Remote of Cache.Meta.t

let now () = Sim.Engine.now ()
let incr nd k = Metrics.Counter.incr nd.counters k
let is_up c i = c.nodes.(i).up

(* ------------------------------------------------------------------ *)
(* Tracing helpers.

   The current span id rides in the engine's fiber-local slot, so it
   survives blocking operations and is inherited by spawned children.
   With tracing off every helper is a direct call through to the wrapped
   work — no clock reads, no effects, no allocation — which is what keeps
   untraced runs byte-identical. *)

(* The span to stamp into an outgoing message: the caller's current span.
   Guarded so the trace-off path performs no effect at all. *)
let span_of c =
  match c.tracer with None -> 0 | Some _ -> Sim.Engine.get_local ()

(* Run [f] inside a span on [nd]'s track. The parent defaults to the
   caller's fiber-local span; the local is set to the new span for the
   duration so nested spans and outgoing messages pick it up. [attrs] is
   only called when tracing is on, so untraced runs build no attribute
   lists or strings. *)
let with_span ?parent ?attrs ?async c nd name f =
  match c.tracer with
  | None -> f ()
  | Some tr ->
      let saved = Sim.Engine.get_local () in
      let parent = match parent with Some p -> p | None -> saved in
      let attrs = Option.map (fun mk -> mk ()) attrs in
      let id =
        Metrics.Trace.begin_span tr ?attrs ?async ~parent ~track:nd.id ~name
          ()
      in
      Sim.Engine.set_local id;
      let finish () =
        Metrics.Trace.end_span tr id;
        Sim.Engine.set_local saved
      in
      (match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e)

(* Point events (crashes, heals); safe in engine-event context — the
   tracer's clock is [Engine.current_time], not the process-only [now]. *)
let emit_instant ?attrs c ~track name =
  match c.tracer with
  | None -> ()
  | Some tr -> Metrics.Trace.instant tr ?attrs ~track ~name ()

