(* The paper's metadata plane (§4.1–4.2): every node holds a full
   directory replica, one table per cluster node, kept consistent by
   broadcasting every insert and delete to all peers. Lookups never leave
   the node. Updates can be batched (a per-node buffer plus a flush
   timer), and an optional anti-entropy exchange repairs replicas that a
   partition or a crash left divergent. *)

open Node

let create (cfg : Config.t) ~cpu ?lock_observe () =
  (* Directory lock and scan work burns this node's CPU, so it contends
     with request processing. *)
  MP.Replicated
    (Cache.Directory.create ~granularity:cfg.Config.dir_granularity
       ~lock_overhead:cfg.Config.dir_lock_overhead
       ~scan_cost:cfg.Config.dir_scan_cost
       ~charge:(fun s -> Sim.Cpu.consume cpu s)
       ~hints:cfg.Config.dir_hints ?lock_observe ~nodes:cfg.Config.n_nodes ())

let lookup c nd dir key =
  match
    with_span c nd "dir.lookup" (fun () ->
        Cache.Directory.lookup_from dir ~self:nd.id ~now:(now ()) key)
  with
  | None -> Miss
  | Some meta when meta.Cache.Meta.owner = nd.id -> Self { repair = true }
  | Some meta -> Remote meta

(* Insert a fresh result into the store and this node's own table,
   returning the store's evictions. Weak consistency: a peer may have
   cached the same request while we executed it — the second kind of
   false miss (§4.2), detected against the replica before inserting. *)
let insert nd dir (meta : Cache.Meta.t) body =
  (match
     Cache.Directory.lookup_from dir ~self:nd.id ~now:meta.Cache.Meta.created
       meta.Cache.Meta.key
   with
  | Some m when m.Cache.Meta.owner <> nd.id -> incr nd K.false_miss_duplicate
  | Some _ | None -> ());
  let evicted = Cache.Store.insert_body nd.store meta body in
  Cache.Directory.insert dir ~node:nd.id meta;
  evicted

(* Drop [key] from this node's own table: the local half of a purge,
   eviction or invalidation, and the repair of a self-owned entry the
   store no longer holds. *)
let retract nd dir key =
  ignore (Cache.Directory.delete dir ~node:nd.id key : bool)

(* A fetch that survived every retry marks the owner as suspect — most
   likely crashed or partitioned. Drop our replica of its whole table:
   its entries could only produce more timed-out fetches, and if the
   owner is alive it will re-announce whatever it still caches as
   requests repopulate it. *)
let on_fetch_timeout nd dir ~owner =
  let purged = Cache.Directory.purge_node dir ~node:owner in
  if purged > 0 then Metrics.Counter.add nd.counters K.dir_suspect_purged purged

(* ------------------------------------------------------------------ *)
(* Announcement transport *)

(* Transmit one directory-update message (bare or batched) to every peer
   per the configured consistency protocol, counting the unicasts and
   wire bytes actually sent. *)
let dispatch c nd msg =
  with_span c nd "broadcast" @@ fun () ->
  let span = span_of c in
  let sent =
    match (c.cfg.Config.consistency, c.cfg.Config.broadcast_latency) with
    | Config.Strong, _ ->
        (* Block until every replica has applied the update. *)
        Cluster.Broadcast.info_sync ~span c.net c.endpoints ~src:nd.id msg
    | Config.Weak, None ->
        (* Interruptible: a crash landing mid-fan-out stops the loop,
           leaving the replica update genuinely partial. *)
        Cluster.Broadcast.info
          ~should_abort:(fun () -> not nd.up)
          ~span c.net c.endpoints ~src:nd.id msg
    | Config.Weak, Some delay ->
        (* Ablation knob: deliver directory updates after a fixed delay,
           bypassing the network model, to widen or narrow the weak-
           consistency window in isolation. *)
        let sent = ref 0 in
        Array.iter
          (fun (ep : Cluster.Endpoint.t) ->
            if ep.Cluster.Endpoint.node <> nd.id then begin
              Stdlib.incr sent;
              ignore
                (Sim.Engine.schedule_after c.engine delay (fun () ->
                     Sim.Mailbox.send ep.Cluster.Endpoint.info_mb
                       { Cluster.Msg.info = msg; ack = None; span })
                  : Sim.Engine.handle)
            end)
          c.endpoints;
        !sent
  in
  if sent > 0 then begin
    Metrics.Counter.add nd.counters K.info_msgs sent;
    Metrics.Counter.add nd.counters K.info_bytes
      (sent * Cluster.Msg.info_bytes msg)
  end

(* The (table, key) a buffered update settles; two updates with the same
   target coalesce because the later one fully determines the key's final
   directory state. *)
let update_target = function
  | Cluster.Msg.Insert m -> (m.Cache.Meta.owner, m.Cache.Meta.key)
  | Cluster.Msg.Delete { node; key } -> (node, key)
  | Cluster.Msg.Promote _ | Cluster.Msg.Demote _ ->
      invalid_arg "Replicated_plane: hotspot control messages are never batched"
  | Cluster.Msg.Batch _ -> invalid_arg "Replicated_plane: batches cannot nest"

(* Transmit whatever the outbound buffer holds. A single buffered update
   goes out bare — byte-identical to the unbatched path — so the Batch
   wrapper (and its counters) only ever covers >= 2 updates. *)
let flush c nd =
  match nd.batch_buf with
  | [] -> ()
  | [ msg ] ->
      nd.batch_buf <- [];
      dispatch c nd msg
  | buffered ->
      nd.batch_buf <- [];
      let updates = List.rev buffered in
      incr nd K.batches_sent;
      Metrics.Counter.add nd.counters K.batch_updates (List.length updates);
      dispatch c nd (Cluster.Msg.Batch updates)

(* Originate one directory update. With batching off ([batch_max <= 1])
   this is exactly the pre-batching path: transmit immediately, bare.
   Otherwise buffer it, coalescing against any pending update to the same
   key (last write wins, and the winner moves to the end so in-order
   application at the receiver is preserved), and flush when the buffer
   reaches [batch_max]; the per-node flusher daemon handles the timer. *)
let announce c nd msg =
  if c.cfg.Config.batch_max <= 1 then dispatch c nd msg
  else begin
    let target = update_target msg in
    let rest =
      List.filter (fun u -> update_target u <> target) nd.batch_buf
    in
    if List.compare_lengths rest nd.batch_buf <> 0 then
      incr nd K.batch_coalesced;
    nd.batch_buf <- msg :: rest;
    if List.compare_length_with nd.batch_buf c.cfg.Config.batch_max >= 0 then
      flush c nd
  end

(* Apply a received directory update; a batch applies its updates in list
   order, so a later update to the same key wins. [info_applied] counts
   updates, not envelopes, keeping it comparable across batch settings. *)
let rec apply nd dir = function
  | Cluster.Msg.Insert meta ->
      incr nd K.info_applied;
      Cache.Directory.insert dir ~node:meta.Cache.Meta.owner meta
  | Cluster.Msg.Delete { node; key } ->
      incr nd K.info_applied;
      ignore (Cache.Directory.delete dir ~node key : bool)
  | Cluster.Msg.Batch updates -> List.iter (apply nd dir) updates
  | Cluster.Msg.Promote _ | Cluster.Msg.Demote _ ->
      invalid_arg "Replicated_plane: hotspot control message"

(* Nagle timer for the batching layer: transmit whatever the outbound
   buffer holds every [period] seconds, so a buffered update never waits
   longer than one period for the size threshold. A crashed node's buffer
   was already cleared by the crash, so skipping while down loses
   nothing. *)
let batch_flusher c nd ~period =
  let rec loop () =
    if not nd.stop then begin
      Sim.Engine.delay period;
      if nd.up && not nd.stop && nd.batch_buf <> [] then
        (* Its own root tree: a batch mixes updates from several requests,
           so no single request can claim the flush. *)
        with_span c nd "batch.flush" (fun () -> flush c nd);
      loop ()
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Anti-entropy (directory repair).

   Each node periodically exchanges per-table directory digests with one
   seeded-random peer and pulls the entries it is missing or holds stale,
   so replicas provably reconverge after a partition heals or a crash cut
   a broadcast short — instead of relying only on the lazy suspect purge.

   Reconciliation rules, per table [j] of a reply from peer [p]:
   - [j = self]: skipped. A node's own table tracks its own store; a peer
     cannot know better, and adopting a peer's stale replica would
     resurrect entries the store no longer holds.
   - [j = p]: the responder is the authority for its own table, so the
     requester adopts it wholesale — stale entries are removed, missing
     ones inserted. This is the only path on which anti-entropy deletes,
     and it is exactly the path on which deletion is safe.
   - otherwise (third-party replica): per-key recency merge — pull a key
     iff it is missing or the incoming meta is newer ([created] is the
     owner's insertion clock, so newest-wins is well defined). Never
     deletes: a missing key may mean "never heard the insert", so removal
     waits for the authority or an ordinary Delete broadcast.

   A pulled key that the requester itself also caches (same key in its own
   table) reveals a duplicate execution that happened while the replicas
   were divided — the paper's second kind of false miss, discovered at
   reconciliation time rather than at insert time. *)

let ae_merge c nd dir (reply : Cluster.Msg.sync_reply) ~peer =
  let pulled = ref 0 in
  let pull j (m : Cache.Meta.t) =
    match Cache.Directory.find dir ~node:j m.Cache.Meta.key with
    | Some cur when cur.Cache.Meta.created >= m.Cache.Meta.created -> ()
    | (Some _ | None) as cur ->
        if
          cur = None
          && Cache.Directory.find dir ~node:nd.id m.Cache.Meta.key <> None
        then incr nd K.false_miss_duplicate;
        Cache.Directory.insert dir ~node:j m;
        Stdlib.incr pulled
  in
  List.iter
    (fun (j, metas) ->
      if j <> nd.id && j >= 0 && j < Array.length c.nodes then begin
        if j = peer then begin
          (* Authoritative copy: drop whatever the responder no longer has. *)
          let keep = Hashtbl.create (List.length metas) in
          List.iter
            (fun (m : Cache.Meta.t) -> Hashtbl.replace keep m.Cache.Meta.key ())
            metas;
          List.iter
            (fun (m : Cache.Meta.t) ->
              if not (Hashtbl.mem keep m.Cache.Meta.key) then
                ignore (Cache.Directory.delete dir ~node:j m.Cache.Meta.key : bool))
            (Cache.Directory.entries dir ~node:j)
        end;
        List.iter (pull j) metas
      end)
    reply.Cluster.Msg.tables;
  !pulled

(* One anti-entropy round: digest everything, ask one seeded-random peer,
   merge whatever comes back before the (bounded) wait expires. *)
let ae_round c nd dir ~period =
  with_span c nd "ae.round" @@ fun () ->
  let n = Array.length c.nodes in
  let peer =
    let k = Sim.Rng.int nd.ae_rng (n - 1) in
    if k >= nd.id then k + 1 else k
  in
  incr nd K.anti_entropy_rounds;
  let digests =
    Array.init n (fun j ->
        let n_entries, hash = Cache.Directory.digest dir ~node:j in
        { Cluster.Msg.n_entries; hash })
  in
  let reply_mb = Sim.Mailbox.create () in
  Cluster.Broadcast.sync c.net c.endpoints ~src:nd.id ~peer
    {
      Cluster.Msg.from_node = nd.id;
      digests;
      sync_reply = reply_mb;
      span = span_of c;
    };
  let timeout = Option.value c.cfg.Config.fetch_timeout ~default:period in
  match Sim.Mailbox.recv_timeout reply_mb ~timeout with
  | None -> ()  (* peer down or partitioned away; next round, another peer *)
  | Some reply ->
      let pulled = ae_merge c nd dir reply ~peer in
      if pulled > 0 then
        Metrics.Counter.add nd.counters K.anti_entropy_pulled pulled

let anti_entropy_daemon c nd dir ~period =
  let rec loop () =
    if not nd.stop then begin
      Sim.Engine.delay period;
      if nd.up && not nd.stop && Array.length c.nodes > 1 then begin
        Sim.Cpu.consume nd.cpu c.cfg.Config.info_apply_cost;
        ae_round c nd dir ~period
      end;
      loop ()
    end
  in
  loop ()

(* The responder half: answer digest exchanges with the tables that
   differ. Runs forever on its mailbox, like the info receiver. *)
let sync_responder c nd dir =
  let rec loop () =
    let req = Sim.Mailbox.recv nd.endpoint.Cluster.Endpoint.sync_mb in
    if not nd.up then loop ()  (* in flight across the crash instant: lost *)
    else begin
      with_span c nd "ae.respond" ~parent:req.Cluster.Msg.span ~async:true
        (fun () ->
          Sim.Cpu.consume nd.cpu c.cfg.Config.info_apply_cost;
          let n = Array.length c.nodes in
          let tables = ref [] in
          for j = n - 1 downto 0 do
            let n_entries, hash = Cache.Directory.digest dir ~node:j in
            let differs =
              match
                if j < Array.length req.Cluster.Msg.digests then
                  Some req.Cluster.Msg.digests.(j)
                else None
              with
              | Some d ->
                  d.Cluster.Msg.n_entries <> n_entries
                  || d.Cluster.Msg.hash <> hash
              | None -> true
            in
            if differs then
              tables := (j, Cache.Directory.entries dir ~node:j) :: !tables
          done;
          let reply = { Cluster.Msg.tables = !tables } in
          Sim.Net.send c.net ~src:nd.id ~dst:req.Cluster.Msg.from_node
            ~bytes:(Cluster.Msg.sync_reply_bytes reply)
            req.Cluster.Msg.sync_reply reply);
      loop ()
    end
  in
  loop ()

(* The plane's daemons, in spawn order: the batch flusher, then the
   anti-entropy responder and initiator. *)
let daemons c nd dir =
  (match (c.cfg.Config.batch_max, c.cfg.Config.batch_flush_interval) with
  | n, Some period when n > 1 -> [ (fun () -> batch_flusher c nd ~period) ]
  | _ -> [])
  @
  match c.cfg.Config.anti_entropy_period with
  | None -> []
  | Some period ->
      [
        (fun () -> sync_responder c nd dir);
        (fun () -> anti_entropy_daemon c nd dir ~period);
      ]

(* Fold the directory's hint statistics into the node's counters. Not
   cumulative-safe: once, after the run. Counters stay absent when zero,
   so hint-less runs keep the pre-hint counter set. *)
let record_stats nd dir =
  let saved, false_hints = Cache.Directory.hint_stats dir in
  if saved > 0 then Metrics.Counter.add nd.counters K.hint_probes_saved saved;
  if false_hints > 0 then
    Metrics.Counter.add nd.counters K.hint_false false_hints
