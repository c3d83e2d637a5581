(* The consistent-hash sharded metadata plane: each key's directory entry
   lives only at its acting home — the first live node in ring-successor
   order. An update is one unicast to the home instead of a broadcast; a
   lookup from any other node is forwarded to the home (fronted by a
   lookup cache), and hot keys are pushed to their ring successors so
   those nodes can answer locally. After any liveness change every node
   re-announces its entries to their possibly new homes (shard handoff).
   The trade-offs against the replicated plane are in
   docs/METADATA_PLANE.md. *)

open Node

(* The shared ring is built once per cluster; every node computes the
   same key-to-home mapping and liveness is supplied per query, so
   crashes never rebuild it. *)
let ring (cfg : Config.t) =
  Cache.Ring.create ~nodes:cfg.Config.n_nodes ~vnodes:cfg.Config.shard_vnodes

let create (cfg : Config.t) ~ring ~cpu ?lock_observe () =
  (* Same lock-cost model and CPU charging as the replicated replica, so
     the dirmode ablation compares the planes, not their cost
     constants. *)
  let table =
    Cache.Shard_table.create ~lock_overhead:cfg.Config.dir_lock_overhead
      ~charge:(fun s -> Sim.Cpu.consume cpu s)
      ?lock_observe ()
  in
  let lcache =
    if cfg.Config.shard_lookup_cache > 0 then
      Some
        (Cache.Lookup_cache.create ~capacity:cfg.Config.shard_lookup_cache
           ~pos_ttl:cfg.Config.shard_pos_ttl ~neg_ttl:cfg.Config.shard_neg_ttl)
    else None
  in
  let hotspot =
    if cfg.Config.hotspot_threshold > 0. then
      Some
        (Cache.Hotspot.create ~threshold:cfg.Config.hotspot_threshold
           ~window:cfg.Config.hotspot_window)
    else None
  in
  MP.Sharded { MP.Sharded.ring; table; lcache; hotspot }

(* ------------------------------------------------------------------ *)
(* Point-to-point announcement routing. Hotspot control messages
   (Promote/Demote) flow from homes to their replica sets on the same
   info channel as inserts and deletes. *)

let key_of_update = function
  | Cluster.Msg.Insert m | Cluster.Msg.Promote m -> m.Cache.Meta.key
  | Cluster.Msg.Delete { key; _ } | Cluster.Msg.Demote { key } -> key
  | Cluster.Msg.Batch _ -> invalid_arg "Sharded_plane: updates never batch"

(* Unicast one announcement, charging the same counters as the replicated
   broadcast so info_msgs/info_bytes compare directly across planes. *)
let unicast_info c nd ~dst msg =
  Cluster.Broadcast.info_to ~span:(span_of c) c.net c.endpoints ~src:nd.id
    ~dst msg;
  incr nd K.info_msgs;
  Metrics.Counter.add nd.counters K.info_bytes (Cluster.Msg.info_bytes msg)

(* The nodes a hot key is replicated to: the ring successors after the
   primary owner, live nodes only, never self. *)
let replica_set c nd (st : MP.Sharded.state) key =
  match
    Cache.Ring.successors st.MP.Sharded.ring key
      ~k:(1 + c.cfg.Config.hotspot_replicas)
  with
  | [] | [ _ ] -> []
  | _ :: tail -> List.filter (fun j -> j <> nd.id && is_up c j) tail

let push_promote c nd st (meta : Cache.Meta.t) =
  List.iter
    (fun j ->
      incr nd K.hotspot_replica_pushes;
      unicast_info c nd ~dst:j (Cluster.Msg.Promote meta))
    (replica_set c nd st meta.Cache.Meta.key)

let push_demote c nd st key =
  List.iter
    (fun j -> unicast_info c nd ~dst:j (Cluster.Msg.Demote { key }))
    (replica_set c nd st key)

(* Apply one announcement at its destination — the shard home for
   inserts/deletes, a replica for promote/demote. Also runs directly when
   the announcing node is itself the acting home (no message then, like
   the replicated plane's local table update). *)
let apply c nd (st : MP.Sharded.state) msg =
  let table = st.MP.Sharded.table in
  match msg with
  | Cluster.Msg.Insert meta ->
      incr nd K.info_applied;
      (match Cache.Shard_table.insert table meta with
      | `Replaced old when old.Cache.Meta.owner <> meta.Cache.Meta.owner ->
          (* Duplicate execution discovered at reconciliation — the
             paper's second kind of false miss, observed at the shard
             home rather than at insert time. *)
          incr nd K.false_miss_duplicate
      | `Inserted | `Replaced _ | `Stale -> ());
      (* A hot key's replicas must see updates too, or their copies would
         serve the superseded owner until demotion. *)
      (match st.MP.Sharded.hotspot with
      | Some h when Cache.Hotspot.is_hot h meta.Cache.Meta.key ->
          push_promote c nd st meta
      | Some _ | None -> ())
  | Cluster.Msg.Delete { node; key } ->
      incr nd K.info_applied;
      ignore (Cache.Shard_table.delete table ~owner:node key : bool);
      (match st.MP.Sharded.hotspot with
      | Some h when Cache.Hotspot.forget h key ->
          incr nd K.hotspot_demotions;
          push_demote c nd st key
      | Some _ | None -> ())
  | Cluster.Msg.Promote meta ->
      incr nd K.info_applied;
      ignore
        (Cache.Shard_table.insert table meta
          : [ `Inserted | `Replaced of Cache.Meta.t | `Stale ])
  | Cluster.Msg.Demote { key } ->
      incr nd K.info_applied;
      (* Retract the replica copy — unless the ring now makes this node
         the key's acting home (the primary crashed since the promote), in
         which case the copy is the authoritative entry. *)
      if Cache.Ring.acting_owner st.MP.Sharded.ring ~up:(is_up c) key
         <> Some nd.id
      then ignore (Cache.Shard_table.delete table key : bool)
  | Cluster.Msg.Batch _ -> invalid_arg "Sharded_plane: batched update"

(* Route one announcement to the key's acting home. The duplicate-
   execution check needs the key's shard entry, which lives at the home,
   so the home performs it when the announcement arrives ([apply]). *)
let announce c nd st msg =
  with_span c nd "announce" @@ fun () ->
  match
    Cache.Ring.acting_owner st.MP.Sharded.ring ~up:(is_up c)
      (key_of_update msg)
  with
  | None -> ()  (* every node down; no directory left to update *)
  | Some home when home = nd.id -> apply c nd st msg
  | Some home -> unicast_info c nd ~dst:home msg

(* ------------------------------------------------------------------ *)
(* Lookup (Figure 2's directory query, re-routed through the ring) *)

(* Count one home-served lookup toward hotspot promotion; when this very
   observation promotes the key, push its entry to the replica set. A
   promotion on a miss has nothing to push — the next Insert announcement
   does it ([apply] checks is_hot). *)
let note_hot_lookup c nd st meta_opt key =
  match st.MP.Sharded.hotspot with
  | None -> ()
  | Some h -> (
      match Cache.Hotspot.record h ~now:(now ()) key with
      | `Noted -> ()
      | `Promoted -> (
          incr nd K.hotspot_promotions;
          match meta_opt with
          | Some meta -> push_promote c nd st meta
          | None -> ()))

let probe c nd st key =
  with_span c nd "dir.lookup" (fun () ->
      Cache.Shard_table.probe st.MP.Sharded.table ~now:(now ()) key)

(* A directory answer this node's own table gave: its entry is
   authoritative (home) or a pushed copy (replica), so a self-owned entry
   the store lost is dropped. *)
let local_verdict nd = function
  | Some meta when meta.Cache.Meta.owner = nd.id -> Self { repair = true }
  | Some meta -> Remote meta
  | None -> Miss

(* Ask the key's acting home who caches it — the plane's only remote
   metadata operation. The request is counted at the requester, the reply
   at the home (lookup_server), so summing nodes counts both legs. *)
let forward_lookup c nd st key ~home =
  let lcache = st.MP.Sharded.lcache in
  incr nd K.shard_fwd_lookups;
  let t_fwd = now () in
  let answer =
    with_span c nd "dir.forward"
      ~attrs:(fun () -> [ ("home", string_of_int home) ])
    @@ fun () ->
    let reply_mb = Sim.Mailbox.create () in
    let req =
      {
        Cluster.Msg.lkey = key;
        lrequester = nd.id;
        lreply = reply_mb;
        lspan = span_of c;
      }
    in
    Cluster.Broadcast.lookup c.net c.endpoints ~src:nd.id ~home req;
    incr nd K.dir_lookup_msgs;
    Metrics.Counter.add nd.counters K.dir_lookup_bytes
      (Cluster.Msg.lookup_request_bytes req);
    match c.cfg.Config.fetch_timeout with
    | None -> Some (Sim.Mailbox.recv reply_mb)
    | Some timeout -> Sim.Mailbox.recv_timeout reply_mb ~timeout
  in
  Metrics.Histogram.add c.fwd_wait (now () -. t_fwd);
  match answer with
  | None ->
      (* Home crashed or partitioned away: execute locally. The crash
         handoff (or the fetch-timeout suspect purge) repairs the shard. *)
      incr nd K.dir_lookup_timeouts;
      Option.iter (fun lc -> Cache.Lookup_cache.invalidate lc key) lcache;
      Miss
  | Some (Cluster.Msg.Found meta) ->
      Option.iter
        (fun lc -> Cache.Lookup_cache.note_pos lc ~now:(now ()) meta)
        lcache;
      if meta.Cache.Meta.owner = nd.id then
        (* The home believes we cache it but our store may disagree (a
           purge raced the delete announcement): the delete is already on
           the wire, so there is nothing to repair here. *)
        Self { repair = false }
      else Remote meta
  | Some (Cluster.Msg.Absent _) ->
      Option.iter
        (fun lc -> Cache.Lookup_cache.note_neg lc ~now:(now ()) key)
        lcache;
      Miss

let lookup c nd st key =
  match Cache.Ring.acting_owner st.MP.Sharded.ring ~up:(is_up c) key with
  | None ->
      (* Every node is down but this one is handling a request — cannot
         happen outside shutdown races; degrade to plain execution. *)
      Miss
  | Some home when home = nd.id ->
      incr nd K.shard_local_lookups;
      let found = probe c nd st key in
      note_hot_lookup c nd st found key;
      local_verdict nd found
  | Some home -> (
      (* Hotspot fast path: with promotion on, this node's table may hold
         a pushed copy of a hot key — probe before paying the forward. *)
      let promoted =
        match st.MP.Sharded.hotspot with
        | Some _ -> probe c nd st key
        | None -> None
      in
      match promoted with
      | Some _ ->
          incr nd K.shard_replica_hits;
          local_verdict nd promoted
      | None -> (
          match
            Option.map
              (fun lc -> Cache.Lookup_cache.find lc ~now:(now ()) key)
              st.MP.Sharded.lcache
          with
          | Some (Cache.Lookup_cache.Hit meta) -> Remote meta
          | Some Cache.Lookup_cache.Absent -> Miss
          | Some Cache.Lookup_cache.Unknown | None ->
              forward_lookup c nd st key ~home))

(* Drop this node's entry for a key its store no longer holds. *)
let repair_self nd st key =
  ignore
    (Cache.Shard_table.delete st.MP.Sharded.table ~owner:nd.id key : bool)

(* The positive information that led to a false hit was provably
   stale. *)
let on_false_hit st ~key =
  Option.iter
    (fun lc -> Cache.Lookup_cache.invalidate lc key)
    st.MP.Sharded.lcache

(* A fetch that survived every retry marks the owner as suspect: drop its
   entries from this node's partition, and forget the positive lookup-
   cache entry that led to it. *)
let on_fetch_timeout nd st ~owner ~key =
  let purged = Cache.Shard_table.purge_owner st.MP.Sharded.table ~node:owner in
  if purged > 0 then Metrics.Counter.add nd.counters K.dir_suspect_purged purged;
  on_false_hit st ~key

(* ------------------------------------------------------------------ *)
(* Daemons and liveness *)

(* Answer forwarded directory lookups for the keys this node homes. One
   thread per request, like the data server; a crashed home never
   replies, so the requester times out and executes locally. *)
let lookup_server c nd st =
  let rec loop () =
    let req = Sim.Mailbox.recv nd.endpoint.Cluster.Endpoint.lookup_mb in
    if not nd.up then loop ()  (* in flight across the crash instant: lost *)
    else begin
      Sim.Engine.spawn_child (fun () ->
          with_span c nd "dir.serve" ~parent:req.Cluster.Msg.lspan ~async:true
          @@ fun () ->
          Sim.Cpu.consume nd.cpu c.cfg.Config.info_apply_cost;
          let found =
            Cache.Shard_table.probe st.MP.Sharded.table ~now:(now ())
              req.Cluster.Msg.lkey
          in
          (* Forwarded lookups are the home's view of the key's demand —
             the signal hotspot promotion feeds on. *)
          note_hot_lookup c nd st found req.Cluster.Msg.lkey;
          let reply =
            match found with
            | Some meta -> Cluster.Msg.Found meta
            | None -> Cluster.Msg.Absent { key = req.Cluster.Msg.lkey }
          in
          incr nd K.dir_lookup_msgs;
          Metrics.Counter.add nd.counters K.dir_lookup_bytes
            (Cluster.Msg.lookup_reply_bytes reply);
          Sim.Net.send c.net ~src:nd.id ~dst:req.Cluster.Msg.lrequester
            ~bytes:(Cluster.Msg.lookup_reply_bytes reply)
            req.Cluster.Msg.lreply reply);
      loop ()
    end
  in
  loop ()

(* Demote cooled hotspot keys once per window. Only shard homes promote,
   so only they originate demotions; Hotspot.sweep returns the cooled
   keys sorted, keeping the message order deterministic. *)
let hotspot_sweeper c nd st h ~period =
  let rec loop () =
    if not nd.stop then begin
      Sim.Engine.delay period;
      if nd.up && not nd.stop then
        List.iter
          (fun key ->
            incr nd K.hotspot_demotions;
            with_span c nd "hotspot.demote" (fun () -> push_demote c nd st key))
          (Cache.Hotspot.sweep h ~now:(now ()));
      loop ()
    end
  in
  loop ()

(* The plane's daemons, in spawn order: the lookup server, then the
   hotspot sweeper when promotion is on. *)
let daemons c nd st =
  (fun () -> lookup_server c nd st)
  ::
  (match st.MP.Sharded.hotspot with
  | None -> []
  | Some h ->
      [ (fun () -> hotspot_sweeper c nd st h ~period:c.cfg.Config.hotspot_window) ])

(* Shard handoff: after any liveness change (crash, restart, partition
   heal) every live node re-derives which keys it answers for and
   re-announces its own cached entries to their — possibly new — acting
   homes. Re-announcements reconcile newest-wins at the receiver, so the
   protocol is idempotent and safe to over-trigger. On a crash the dead
   node's directory entries are additionally dropped eagerly
   ([purge_owner]) instead of waiting for fetch-timeout suspicion; stale
   positive lookup-cache entries pointing at the dead node are left to
   expire (bounded by [shard_pos_ttl]) or be invalidated by the first
   timed-out fetch. Runs as a spawned process: the triggering event
   callback cannot block on locks or the network. *)
let handoff c nd st ?died () =
  Sim.Engine.spawn c.engine (fun () ->
      let ring = st.MP.Sharded.ring in
      (match died with
      | Some j ->
          let purged = Cache.Shard_table.purge_owner st.MP.Sharded.table ~node:j in
          if purged > 0 then
            Metrics.Counter.add nd.counters K.dir_suspect_purged purged
      | None -> ());
      (* Drop entries this node no longer answers for — unless it may
         legitimately hold them as a hotspot replica. *)
      let keep key =
        match Cache.Ring.acting_owner ring ~up:(is_up c) key with
        | Some h when h = nd.id -> true
        | Some _ | None ->
            st.MP.Sharded.hotspot <> None
            && List.exists
                 (fun j -> j = nd.id)
                 (Cache.Ring.successors ring key
                    ~k:(1 + c.cfg.Config.hotspot_replicas))
      in
      let pruned = Cache.Shard_table.prune st.MP.Sharded.table ~keep in
      if pruned > 0 then Metrics.Counter.add nd.counters K.shard_pruned pruned;
      List.iter
        (fun key ->
          match Cache.Store.peek nd.store key with
          | None -> ()
          | Some entry ->
              incr nd K.shard_handoff_reannounced;
              announce c nd st (Cluster.Msg.Insert entry.Cache.Store.meta))
        (Cache.Store.keys nd.store))

(* Fold the lookup cache's outcomes into the node's counters. Like the
   replicated plane's hint statistics: once, after the run; counters stay
   absent when zero. *)
let record_stats nd st =
  match st.MP.Sharded.lcache with
  | None -> ()
  | Some lc ->
      let pos, neg, _misses, evictions = Cache.Lookup_cache.stats lc in
      if pos > 0 then Metrics.Counter.add nd.counters K.lcache_pos_hits pos;
      if neg > 0 then Metrics.Counter.add nd.counters K.lcache_neg_hits neg;
      if evictions > 0 then
        Metrics.Counter.add nd.counters K.lcache_evictions evictions
