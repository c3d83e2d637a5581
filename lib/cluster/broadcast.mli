(** Asynchronous directory-information broadcast.

    When a node inserts or deletes a cache entry it sends the update to
    every peer without waiting for acknowledgements — the paper's weak
    inter-node consistency protocol (no two-phase commit, no global locks;
    replicas may briefly diverge, producing false hits/misses).

    The unicasts ({!info_to}, {!lookup}, {!sync}, {!fetch},
    {!fetch_sync}) address [endpoints.(dst)] directly: the array must be
    indexed by node id. A destination out of range, or whose slot holds
    another node's endpoint, raises [Invalid_argument]. *)

(** [info ?should_abort net endpoints ~src msg] transmits [msg] from node
    [src] to every other endpoint (in endpoint order), fire-and-forget.
    The caller's simulated thread pays the (tiny) NIC transmission times;
    deliveries happen after the network latency. Returns the number of
    peers actually messaged.

    [should_abort] (default: never) is consulted before each per-peer
    send; once it returns [true] the remaining peers are skipped. The
    server passes the node's liveness so that a crash landing mid-fan-out
    leaves a {e genuinely partial} replica update — some peers applied the
    insert, the rest never heard of it — which is the divergence the
    paper's weak-consistency model allows and the anti-entropy daemon
    repairs. Must run in a process.

    [span] (default [0] = untraced) is stamped into each envelope so
    receivers can parent their apply spans on the originating request. *)
val info :
  ?should_abort:(unit -> bool) ->
  ?span:int ->
  Sim.Net.t -> Endpoint.t array -> src:int -> Msg.info -> int

(** [info_to net endpoints ~src ~dst msg] unicasts one directory update
    to [dst]'s info receiver — the sharded plane's point-to-point
    announcement path (an insert/delete travels to the key's shard home
    only, instead of fanning out to every peer). Fire-and-forget, same
    envelope and receiver daemon as {!info}. Must run in a process.
    [span] as in {!info}. *)
val info_to :
  ?span:int ->
  Sim.Net.t -> Endpoint.t array -> src:int -> dst:int -> Msg.info -> unit

(** [lookup net endpoints ~src ~home req] sends a forwarded directory
    lookup to [home]'s lookup server (sharded plane). The reply arrives
    in [req.lreply]; on timeout the requester abandons the mailbox and
    executes locally. Must run in a process. *)
val lookup :
  Sim.Net.t -> Endpoint.t array -> src:int -> home:int ->
  Msg.lookup_request -> unit

(** [sync net endpoints ~src ~peer req] sends one anti-entropy digest
    exchange request to [peer]'s sync responder. Fire-and-forget like
    {!info}; the reply (if the peer is up and reachable) arrives in
    [req.sync_reply]. Must run in a process. *)
val sync :
  Sim.Net.t -> Endpoint.t array -> src:int -> peer:int ->
  Msg.sync_request -> unit

(** [info_sync net endpoints ~src msg] sends [msg] with acknowledgement
    requests and blocks until every peer has applied it — the strong
    protocol of the consistency ablation. Returns the number of peers.
    [span] as in {!info}. *)
val info_sync :
  ?span:int ->
  Sim.Net.t -> Endpoint.t array -> src:int -> Msg.info -> int

(** [fetch net endpoints ~src ~owner req] sends a data-fetch request to
    [owner]'s data server. *)
val fetch :
  Sim.Net.t -> Endpoint.t array -> src:int -> owner:int ->
  Msg.fetch_request -> unit

(** [fetch_sync net endpoints ~src ~owner ~timeout ~retries ~backoff key]
    is the blocking data-server round-trip with bounded retry: it sends a
    fetch request and waits up to [timeout] simulated seconds for the
    reply; on timeout it retries with the timeout multiplied by [backoff]
    (exponential backoff), up to [retries] additional attempts. Returns
    [(reply, n)] where [n] is the number of retries actually performed;
    [reply] is [None] when every attempt timed out — the caller's cue to
    fall back to local CGI execution (the paper's false-hit path, §4.2,
    now also reachable through message loss or a crashed owner).

    Requires [timeout > 0], [retries >= 0], [backoff >= 1]. Each attempt
    uses a fresh reply mailbox, so a straggling reply to an abandoned
    attempt is ignored rather than mistaken for the current one. Must run
    in a process. [span] as in {!info}, stamped into each attempt's
    request. *)
val fetch_sync :
  ?span:int ->
  Sim.Net.t -> Endpoint.t array -> src:int -> owner:int -> timeout:float ->
  retries:int -> backoff:float -> string -> Msg.fetch_reply option * int
