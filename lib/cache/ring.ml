(* Consistent-hash ring with virtual nodes.

   The ring is a static, immutable structure shared by every node of a
   cluster: [nodes * vnodes] points on a 62-bit hash circle, each point
   claiming the arc that ends at it. A key's home is the physical node
   owning the first point at or clockwise after the key's hash. Liveness
   is *not* baked into the ring — crash handoff is expressed by walking
   the distinct-successor order and skipping nodes the caller reports
   down, so the mapping needs no rebuild on membership churn and every
   node computes the same answer from the same liveness view. *)

type t = {
  hashes : int array;  (* point hashes, ascending; ties by node id *)
  owners : int array;  (* owners.(i) is the physical node of point i *)
  nodes : int;
  vnodes : int;
}

(* FNV-1a, folded to 62 bits so the arithmetic stays in OCaml's tagged
   int range on 64-bit platforms. Stable across runs and processes,
   unlike the polymorphic [Hashtbl.hash] contract. *)
let fnv_step h c = (h lxor c) * 0x01000193 land 0x3FFFFFFFFFFFFFF
let fnv_basis = 0x811c9dc5

let fnv1a s =
  let h = ref fnv_basis in
  String.iter (fun c -> h := fnv_step !h (Char.code c)) s;
  !h

(* Feeds the decimal digits of [n >= 0], most significant first: the
   bytes [string_of_int n] would feed, without building the string. *)
let rec fnv_decimal h n =
  let h = if n >= 10 then fnv_decimal h (n / 10) else h in
  fnv_step h (Char.code '0' + (n mod 10))

(* The hash of the point label "vn:<node>:<vnode>". *)
let point_hash =
  let prefix = fnv1a "vn:" in
  fun node vnode ->
    fnv_decimal (fnv_step (fnv_decimal prefix node) (Char.code ':')) vnode

let create ~nodes ~vnodes =
  if nodes < 1 then invalid_arg "Ring.create: nodes must be >= 1";
  if vnodes < 1 then invalid_arg "Ring.create: vnodes must be >= 1";
  let n = nodes * vnodes in
  let hash_of = Array.init n (fun i -> point_hash (i / vnodes) (i mod vnodes)) in
  (* Point [i] belongs to node [i / vnodes]. Ties between points are
     broken by node id so the sort — and hence every ownership decision —
     is deterministic. *)
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun i j ->
      let c = Int.compare hash_of.(i) hash_of.(j) in
      if c <> 0 then c else Int.compare (i / vnodes) (j / vnodes))
    order;
  {
    hashes = Array.map (fun i -> hash_of.(i)) order;
    owners = Array.map (fun i -> i / vnodes) order;
    nodes;
    vnodes;
  }

let nodes t = t.nodes
let vnodes t = t.vnodes
let points t = Array.map2 (fun h n -> (h, n)) t.hashes t.owners

(* Index of the first point with hash >= h, wrapping to 0 past the end. *)
let first_at_or_after t h =
  let n = Array.length t.hashes in
  if h > t.hashes.(n - 1) then 0
  else begin
    (* Binary search for the leftmost point with hash >= h. *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.hashes.(mid) >= h then hi := mid else lo := mid + 1
    done;
    !lo
  end

let owner t key = t.owners.(first_at_or_after t (fnv1a key))

let rec mem_int (x : int) = function [] -> false | y :: tl -> x = y || mem_int x tl

(* Walk the ring clockwise from the key's point, collecting the first [k]
   distinct physical nodes. There are only [nodes] of them, so the walk
   stops once it has them all, and dedupes against the at most [nodes]
   found so far. *)
let successors t key ~k =
  if k < 1 then invalid_arg "Ring.successors: k must be >= 1";
  let k = min k t.nodes in
  let n = Array.length t.owners in
  let start = first_at_or_after t (fnv1a key) in
  let rec go i found out =
    if found = k then List.rev out
    else
      let node = t.owners.((start + i) mod n) in
      if mem_int node out then go (i + 1) found out
      else go (i + 1) (found + 1) (node :: out)
  in
  go 0 0 []

let acting_owner t ~up key =
  let n = Array.length t.owners in
  let start = first_at_or_after t (fnv1a key) in
  let home = t.owners.(start) in
  if up home then Some home
  else begin
    (* The home is down: walk on, skipping nodes already found down. *)
    let down = Array.make t.nodes false in
    down.(home) <- true;
    let rec go i =
      if i >= n then None
      else
        let node = t.owners.((start + i) mod n) in
        if down.(node) then go (i + 1)
        else if up node then Some node
        else begin
          down.(node) <- true;
          go (i + 1)
        end
    in
    go 1
  end

let spread t ~keys =
  let counts = Array.make t.nodes 0 in
  List.iter (fun k -> counts.(owner t k) <- counts.(owner t k) + 1) keys;
  counts
