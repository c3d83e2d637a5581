(* A node's metadata-plane state: what it keeps locally so the cluster can
   answer "who caches key k?". The transport of each plane lives in
   Core.Replicated_plane and Core.Sharded_plane; this module owns the
   node-local state and the operations the runner and the crash path need
   in either mode. *)

module Sharded = struct
  type state = {
    ring : Ring.t;  (* shared, immutable; same structure on every node *)
    table : Shard_table.t;
    lcache : Lookup_cache.t option;
    hotspot : Hotspot.t option;
  }
end

type t = Replicated of Directory.t | Sharded of Sharded.state

let mode_name = function Replicated _ -> "replicated" | Sharded _ -> "sharded"

let entries = function
  | Replicated d -> Directory.total_size d
  | Sharded s -> (
      Shard_table.length s.table
      + match s.lcache with None -> 0 | Some lc -> Lookup_cache.length lc)

let lock_acquisitions = function
  | Replicated d -> Directory.lock_acquisitions d
  | Sharded s -> Shard_table.lock_acquisitions s.table

let reset ~node = function
  | Replicated d ->
      (* A crashing node loses only its own table — the other tables are
         its (now stale) view of peers, repaired lazily after restart. *)
      Directory.reset_node d ~node
  | Sharded s ->
      (* A crash loses the whole node-local sharded state: its partition
         of the directory, the lookup cache and the hotspot tracker. *)
      let n = Shard_table.reset s.table in
      Option.iter Lookup_cache.clear s.lcache;
      Option.iter Hotspot.clear s.hotspot;
      n

let shard = function Sharded s -> Some s | Replicated _ -> None
