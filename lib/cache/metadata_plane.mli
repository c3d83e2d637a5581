(** A node's metadata-plane state: the node-local half of "who caches key
    k?", in one of two modes.

    - {b Replicated} (the paper's design, {!Directory}): every node holds
      a full directory replica — one table per cluster node — kept
      consistent by broadcasting every insert/delete. O(n) memory per
      node, O(n) messages per update, zero-message lookups.
    - {b Sharded} ({!Ring} + {!Shard_table}): the directory is
      partitioned over a consistent-hash ring; each key's entry lives
      only at its home node. O(total/n) memory per node and O(1)
      messages per update, but a lookup from a non-home node crosses the
      network (softened by a {!Lookup_cache} and, for Zipf-head keys, by
      {!Hotspot} replication to k ring successors).

    Each cooperative node's plane is built once, at cluster creation. The
    transport half of each mode lives in one module of the core library:
    [Core.Replicated_plane] (broadcast or batched announcements, local
    lookups, anti-entropy) and [Core.Sharded_plane] (unicast
    announcements to the key's home, forwarded lookups, hotspot
    replication, shard handoff). Their operations — build the state,
    look up (a [Miss | Self | Remote meta] verdict), the local directory
    effect of an insert or retraction, announce, apply a received update,
    react to a timed-out fetch, a false hit or a liveness change, list
    the plane's daemons, fold run-end statistics — are dispatched by
    [Core.Server] with one match on {!t}. This module owns what the
    runner and the crash path need in either mode. The operation table
    and the mode-selection trade-offs are in docs/METADATA_PLANE.md. *)

(** The sharded plane's local state: the shared ring plus this node's
    shard partition, and the optional lookup cache and hotspot tracker. *)
module Sharded : sig
  type state = {
    ring : Ring.t;
        (** immutable and shared — every node computes the same mapping *)
    table : Shard_table.t;  (** this node's partition of the directory *)
    lcache : Lookup_cache.t option;
        (** fronts forwarded lookups; [None] when disabled *)
    hotspot : Hotspot.t option;
        (** promotion tracker; [None] when hotspot replication is off *)
  }
end

(** A node's plane: a full directory replica, or its sharded state. *)
type t = Replicated of Directory.t | Sharded of Sharded.state

(** [mode_name t] is ["replicated"] or ["sharded"]. *)
val mode_name : t -> string

(** [entries t] is this node's metadata footprint in entries (the memory
    metric of the dirmode ablation): the whole replica (replicated) or
    the shard partition plus lookup cache (sharded). *)
val entries : t -> int

(** [lock_acquisitions t] is the plane's cumulative (read, write) lock
    acquisitions — {!Directory.lock_acquisitions} or
    {!Shard_table.lock_acquisitions}, under the same locking cost
    model. *)
val lock_acquisitions : t -> int * int

(** [reset ~node t] is the fail-stop crash wipe of node [node]'s
    authoritative plane state (no locks, no simulated charges), returning
    how many entries were lost: the node's own table of the replica (the
    peer tables describe state that still exists elsewhere), or
    everything node-local for the sharded plane. *)
val reset : node:int -> t -> int

(** [shard t] is the underlying sharded state when the plane is
    sharded. *)
val shard : t -> Sharded.state option
