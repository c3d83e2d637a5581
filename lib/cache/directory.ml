type granularity = Global | Per_table | Per_entry

type table = {
  lock : Sim.Rwlock.t;  (* the table's lock under Per_table *)
  entries : (string, Meta.t) Hashtbl.t;
  mutable last_touch : float;
  mutable digest_xor : int;
      (* xor of meta_hash over [entries], maintained incrementally so
         [digest] is O(1) instead of re-hashing every entry. *)
}

type t = {
  gran : granularity;
  lock_overhead : float;
  scan_cost : float;
  charge_fn : float -> unit;
  global_lock : Sim.Rwlock.t;  (* used under Global *)
  tables : table array;
  (* Per_entry is modelled by charging one acquisition per entry scanned;
     the per-entry locks themselves would never contend in our serial probe,
     so only their cost is simulated. We still take the table lock to keep
     exclusion correct. *)
  mutable extra_rd : int;
  mutable extra_wr : int;
  orders : int array array;
      (* orders.(self) is self followed by the other node ids in index
         order — the probe chain, precomputed once at create. *)
  hints : (string, int) Hashtbl.t option;
      (* key -> bitmask of tables hinted to hold the key. Advisory only:
         a set bit may be stale (expired/deleted entry), a clear bit may
         miss a live one; lookups always fall back to the full scan. *)
  mutable hint_saved : int;  (* table probes skipped thanks to hints *)
  mutable hint_false : int;  (* lookups where every hinted probe missed *)
}

let create ?(granularity = Per_table) ?(lock_overhead = 2e-6) ?(scan_cost = 0.)
    ?(charge = Sim.Engine.delay) ?(hints = false) ?lock_observe ~nodes () =
  if nodes < 1 then invalid_arg "Directory.create: nodes must be >= 1";
  if lock_overhead < 0. then invalid_arg "Directory.create: negative overhead";
  if scan_cost < 0. then invalid_arg "Directory.create: negative scan cost";
  if hints && nodes > Sys.int_size - 2 then
    invalid_arg "Directory.create: hint bitmask cannot cover that many nodes";
  {
    gran = granularity;
    lock_overhead;
    scan_cost;
    charge_fn = charge;
    global_lock = Sim.Rwlock.create ?observe:lock_observe ();
    tables =
      Array.init nodes (fun _ ->
          {
            lock = Sim.Rwlock.create ?observe:lock_observe ();
            entries = Hashtbl.create 64;
            last_touch = 0.;
            digest_xor = 0;
          });
    extra_rd = 0;
    extra_wr = 0;
    orders =
      Array.init nodes (fun self ->
          Array.init nodes (fun i ->
              if i = 0 then self
              else if i <= self then i - 1
              else i));
    hints = (if hints then Some (Hashtbl.create 256) else None);
    hint_saved = 0;
    hint_false = 0;
  }

let check_node t node =
  if node < 0 || node >= Array.length t.tables then
    invalid_arg "Directory: node out of range"

let charge t n =
  if n > 0 && t.lock_overhead > 0. then
    t.charge_fn (float_of_int n *. t.lock_overhead)

(* One FNV-1a step over a whole word. OCaml's int arithmetic wraps, and
   both the xor and the multiply by an odd prime are bijections, so two
   inputs of the same length that differ in one word never hash alike. *)
let[@inline] mix h v = (h lxor v) * 0x100000001b3

(* All 64 bits of a float, as two 32-bit halves. *)
let[@inline] mix_float h f =
  let b = Int64.bits_of_float f in
  mix
    (mix h (Int64.to_int (Int64.logand b 0xFFFF_FFFFL)))
    (Int64.to_int (Int64.shift_right_logical b 32))

(* Stable hash of one meta's fields, read directly: no intermediate
   string and no boxed value, since every applied update pays it. The
   final xor-shift/multiply rounds spread the bits so the xor of many
   entry hashes stays well mixed. *)
let meta_hash (m : Meta.t) =
  let key = m.Meta.key in
  let h = ref (mix 0x811c9dc5 (String.length key)) in
  for i = 0 to String.length key - 1 do
    h := mix !h (Char.code (String.unsafe_get key i))
  done;
  let h = mix (mix !h m.Meta.owner) m.Meta.size in
  let h = mix_float (mix_float h m.Meta.exec_time) m.Meta.created in
  let h =
    match m.Meta.expires with
    | None -> mix_float (mix h 0) 0.
    | Some e -> mix_float (mix h 1) e
  in
  let h = (h lxor (h lsr 31)) * 0x3fb5d329728ea185 in
  let h = (h lxor (h lsr 27)) * 0x01dadef4bc2dd44d in
  h lxor (h lsr 33)

let hint_add t ~node key =
  match t.hints with
  | None -> ()
  | Some h ->
      let mask =
        match Hashtbl.find h key with m -> m | exception Not_found -> 0
      in
      Hashtbl.replace h key (mask lor (1 lsl node))

let hint_remove t ~node key =
  match t.hints with
  | None -> ()
  | Some h -> (
      match Hashtbl.find h key with
      | exception Not_found -> ()
      | mask ->
          let mask = mask land lnot (1 lsl node) in
          if mask = 0 then Hashtbl.remove h key
          else Hashtbl.replace h key mask)

(* Drop [node]'s bit from every hint; used when a whole table is wiped. *)
let hint_clear_node t ~node tbl =
  match t.hints with
  | None -> ()
  | Some _ -> Hashtbl.iter (fun key _ -> hint_remove t ~node key) tbl.entries

(* Time spent examining the probed table, charged while the lock is held. *)
let scan_charge t tbl =
  if t.scan_cost > 0. then
    t.charge_fn
      (float_of_int (Stdlib.max 1 (Hashtbl.length tbl.entries)) *. t.scan_cost)

(* The lock guarding [tbl] under the directory's granularity. *)
let table_lock t tbl =
  match t.gran with Global -> t.global_lock | Per_table | Per_entry -> tbl.lock

(* The cost of a held lock, charged while it is held (the probe scans the
   table under its lock), so a single global lock serialises all that
   scan time — the contention the paper's §4.2 argument predicts. *)
let charge_held t tbl acquisitions =
  charge t acquisitions;
  scan_charge t tbl

(* Lock acquisitions a read probe pays: one, except under Per_entry,
   which pays one per entry scanned in this probe. *)
let rd_acquisitions t tbl =
  match t.gran with
  | Global | Per_table -> 1
  | Per_entry ->
      let scanned = Stdlib.max 1 (Hashtbl.length tbl.entries) in
      t.extra_rd <- t.extra_rd + scanned - 1;
      scanned

(* Locked operations lock, charge and unlock inline rather than through
   a [with_lock] helper, whose closure every applied update would
   allocate. The lock is released if the charge raises. *)
let probe t tbl ~now key =
  let acquisitions = rd_acquisitions t tbl in
  let lock = table_lock t tbl in
  Sim.Rwlock.rd_lock lock;
  match
    charge_held t tbl acquisitions;
    Hashtbl.find_opt tbl.entries key
  with
  | Some meta as hit when not (Meta.expired meta ~now) ->
      Sim.Rwlock.rd_unlock lock;
      hit
  | Some _ | None ->
      Sim.Rwlock.rd_unlock lock;
      None
  | exception e ->
      Sim.Rwlock.rd_unlock lock;
      raise e

(* Scan the probe chain [order] from position [from], skipping any table
   whose bit is set in [skip] (already probed). Returns the hit's table
   id alongside the meta so the hint repair below can re-hint it. *)
let scan_order t order ~now key ~from ~skip =
  let n = Array.length order in
  let rec go i =
    if i >= n then None
    else
      let node = order.(i) in
      if skip land (1 lsl node) <> 0 then go (i + 1)
      else
        match probe t t.tables.(node) ~now key with
        | Some meta -> Some (meta, node)
        | None -> go (i + 1)
  in
  go from

let lookup_from t ~self ~now key =
  check_node t self;
  let order = t.orders.(self) in
  match t.hints with
  | None -> Option.map fst (scan_order t order ~now key ~from:0 ~skip:0)
  | Some h -> (
      match Hashtbl.find_opt h key with
      | None | Some 0 ->
          (* No hint: the key should be nowhere, but hints are advisory,
             so fall back to the full ordered scan. *)
          Option.map fst (scan_order t order ~now key ~from:0 ~skip:0)
      | Some mask ->
          (* Probe only the hinted tables, in probe-chain order. On a hit
             we saved every un-hinted table that precedes it in the
             chain; if every hinted probe misses, the hint was false and
             the full scan (minus tables already probed) takes over. *)
          let n = Array.length order in
          let rec go i probed =
            if i >= n then begin
              t.hint_false <- t.hint_false + 1;
              (* Every hinted table was probed and missed, so the whole
                 mask is stale (expired entries, or an owner change after
                 a handoff). Drop it — otherwise every future lookup of
                 this key would pay the false-hint fallback again — and
                 re-hint wherever the fallback scan finds the key now. *)
              Hashtbl.remove h key;
              (match scan_order t order ~now key ~from:0 ~skip:mask with
              | Some (meta, node) ->
                  hint_add t ~node key;
                  Some meta
              | None -> None)
            end
            else
              let node = order.(i) in
              if mask land (1 lsl node) = 0 then go (i + 1) probed
              else
                match probe t t.tables.(node) ~now key with
                | Some meta ->
                    t.hint_saved <- t.hint_saved + (i + 1 - (probed + 1));
                    Some meta
                | None -> go (i + 1) (probed + 1)
          in
          go 0 0)

let lookup t ~now key = lookup_from t ~self:0 ~now key

(* The unlocked bodies below keep [digest_xor] and the hint index in step
   with [entries]; every mutation of a table goes through one of them. *)
let insert_unlocked t tbl ~node meta =
  let key = meta.Meta.key in
  (match Hashtbl.find tbl.entries key with
  | old ->
      tbl.digest_xor <- tbl.digest_xor lxor meta_hash old;
      Hashtbl.replace tbl.entries key meta
  | exception Not_found -> Hashtbl.add tbl.entries key meta);
  tbl.digest_xor <- tbl.digest_xor lxor meta_hash meta;
  hint_add t ~node key

let delete_unlocked t tbl ~node key =
  match Hashtbl.find tbl.entries key with
  | old ->
      tbl.digest_xor <- tbl.digest_xor lxor meta_hash old;
      Hashtbl.remove tbl.entries key;
      hint_remove t ~node key;
      true
  | exception Not_found -> false

let wipe_unlocked t tbl ~node =
  let n = Hashtbl.length tbl.entries in
  hint_clear_node t ~node tbl;
  Hashtbl.reset tbl.entries;
  tbl.digest_xor <- 0;
  n

(* Take [node]'s table for writing: the lock, then its charge. Only the
   charge can raise (a caller's [charge], or [Engine.delay] outside a
   process), so the lock is released on that path here; the unlocked
   bodies that run under it cannot raise and release it directly. *)
let wr_acquire t ~node =
  check_node t node;
  let tbl = t.tables.(node) in
  let lock = table_lock t tbl in
  Sim.Rwlock.wr_lock lock;
  (match charge_held t tbl 1 with
  | () -> ()
  | exception e ->
      Sim.Rwlock.wr_unlock lock;
      raise e);
  tbl

let wr_release t tbl = Sim.Rwlock.wr_unlock (table_lock t tbl)

let insert t ~node meta =
  let tbl = wr_acquire t ~node in
  insert_unlocked t tbl ~node meta;
  wr_release t tbl

let delete t ~node key =
  let tbl = wr_acquire t ~node in
  let found = delete_unlocked t tbl ~node key in
  wr_release t tbl;
  found

let purge_node t ~node =
  let tbl = wr_acquire t ~node in
  let n = wipe_unlocked t tbl ~node in
  wr_release t tbl;
  n

let reset_node t ~node =
  check_node t node;
  wipe_unlocked t t.tables.(node) ~node

let touch t ~node key ~now =
  let tbl = wr_acquire t ~node in
  tbl.last_touch <- now;
  let found = Hashtbl.mem tbl.entries key in
  wr_release t tbl;
  found

let entries t ~node =
  check_node t node;
  Hashtbl.fold (fun _ m acc -> m :: acc) t.tables.(node).entries []

let find t ~node key =
  check_node t node;
  Hashtbl.find_opt t.tables.(node).entries key

let digest_slow t ~node =
  check_node t node;
  let tbl = t.tables.(node) in
  let hash = Hashtbl.fold (fun _ m acc -> acc lxor meta_hash m) tbl.entries 0 in
  (Hashtbl.length tbl.entries, hash)

(* Debug path: recompute the digest from scratch and compare against the
   incrementally maintained xor, catching any update path that forgot to
   fold its delta in. Opt-in because it defeats the O(1) purpose. *)
let verify_digests =
  match Sys.getenv_opt "SWALA_VERIFY_DIGESTS" with
  | Some ("1" | "true" | "yes") -> true
  | Some _ | None -> false

let digest t ~node =
  check_node t node;
  let tbl = t.tables.(node) in
  if verify_digests then begin
    let slow = digest_slow t ~node in
    assert (slow = (Hashtbl.length tbl.entries, tbl.digest_xor))
  end;
  (Hashtbl.length tbl.entries, tbl.digest_xor)

let table_size t ~node =
  check_node t node;
  Hashtbl.length t.tables.(node).entries

let total_size t =
  Array.fold_left (fun acc tbl -> acc + Hashtbl.length tbl.entries) 0 t.tables

let nodes t = Array.length t.tables
let hints_enabled t = t.hints <> None
let hint_stats t = (t.hint_saved, t.hint_false)

let lock_acquisitions t =
  let rd = ref (Sim.Rwlock.rd_acquisitions t.global_lock + t.extra_rd) in
  let wr = ref (Sim.Rwlock.wr_acquisitions t.global_lock + t.extra_wr) in
  Array.iter
    (fun tbl ->
      rd := !rd + Sim.Rwlock.rd_acquisitions tbl.lock;
      wr := !wr + Sim.Rwlock.wr_acquisitions tbl.lock)
    t.tables;
  (!rd, !wr)
