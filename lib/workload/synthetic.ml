type adl_params = {
  n_requests : int;
  cgi_fraction : float;
  n_hot : int;
  p_hot : float;
  hot_zipf_s : float;
  hot_mean : float;
  hot_cv : float;
  cold_mean : float;
  cold_cv : float;
  n_files : int;
  file_zipf_s : float;
  cgi_out_bytes : int;
}

(* Calibration: 0.105 * 4.6 + 0.895 * 1.25 = 1.60 s mean CGI demand, matching
   the paper's measured average; ~220 hot queries concentrate the repeats the
   way the paper's Table 1 reports (~190 distinct requests above the 1 s
   threshold account for the bulk of the saving). *)
let default_adl =
  {
    n_requests = 69_337;
    cgi_fraction = 0.413;
    n_hot = 220;
    p_hot = 0.105;
    hot_zipf_s = 0.6;
    hot_mean = 4.6;
    hot_cv = 1.2;
    cold_mean = 1.25;
    cold_cv = 2.0;
    n_files = 3_000;
    file_zipf_s = 0.9;
    cgi_out_bytes = 8_192;
  }

let query_script = "/cgi-bin/query"
let unique_script = "/cgi-bin/unique"
let private_script = "/cgi-bin/private"

(* The "xd" and "xb" args carry the per-key demand and output size so that
   replay against the server model reproduces the trace's service times
   (see Cgi.Cost.From_query). Generators format them once per distinct
   value and share the list among every key that has it. *)
let demand_arg demand = ("xd", Printf.sprintf "%.9g" demand)
let size_arg out_bytes = ("xb", string_of_int out_bytes)
let replay_args ~demand ~out_bytes = [ demand_arg demand; size_arg out_bytes ]

let cgi_kind ~script ~qkey ~demand ~out_bytes ~replay =
  Trace.Cgi { script; args = ("q", qkey) :: replay; demand; out_bytes }

(* [interned n make] is [make] memoised over [0 .. n-1]: every repeat of
   a key shares one physically equal, immutable kind. *)
let interned n make =
  let cache = Array.make n None in
  fun k ->
    match cache.(k) with
    | Some kind -> kind
    | None ->
        let kind = make k in
        cache.(k) <- Some kind;
        kind

let adl ~seed ?(params = default_adl) () =
  let p = params in
  if p.n_requests < 1 then invalid_arg "Synthetic.adl: n_requests must be >= 1";
  let rng = Sim.Rng.create seed in
  let rng_kind = Sim.Rng.split rng in
  let rng_hot = Sim.Rng.split rng in
  let rng_cold = Sim.Rng.split rng in
  let rng_file = Sim.Rng.split rng in
  let rng_size = Sim.Rng.split rng in
  (* Hot queries: per-key demand fixed at creation. *)
  let hot_demand =
    Array.init p.n_hot (fun _ ->
        Sim.Dist.lognormal_mean_cv rng_hot ~mean:p.hot_mean ~cv:p.hot_cv)
  in
  let hot_pop = Sim.Dist.Zipf.make ~n:p.n_hot ~s:p.hot_zipf_s in
  let file_pop = Sim.Dist.Zipf.make ~n:p.n_files ~s:p.file_zipf_s in
  let file_bytes =
    Array.init p.n_files (fun _ ->
        int_of_float
          (Sim.Dist.lognormal_mean_cv rng_size ~mean:12_000. ~cv:2.0))
  in
  let hot_kind =
    interned p.n_hot (fun k ->
        let demand = hot_demand.(k) in
        cgi_kind ~script:query_script
          ~qkey:(Printf.sprintf "hot%04d" k)
          ~demand ~out_bytes:p.cgi_out_bytes
          ~replay:(replay_args ~demand ~out_bytes:p.cgi_out_bytes))
  in
  let file_kind =
    interned p.n_files (fun k ->
        Trace.File
          { path = Printf.sprintf "/adl/doc%05d.html" k; bytes = file_bytes.(k) })
  in
  (* Cold queries differ in demand, so only the "xb" tail is shared. *)
  let xb = [ size_arg p.cgi_out_bytes ] in
  let next_cold = ref 0 in
  List.init p.n_requests (fun id ->
      let kind =
        if Sim.Rng.float rng_kind < p.cgi_fraction then
          if Sim.Rng.float rng_kind < p.p_hot then
            hot_kind (Sim.Dist.Zipf.draw hot_pop rng_hot)
          else begin
            incr next_cold;
            let demand =
              Sim.Dist.lognormal_mean_cv rng_cold ~mean:p.cold_mean
                ~cv:p.cold_cv
            in
            cgi_kind ~script:query_script
              ~qkey:(Printf.sprintf "cold%06d" !next_cold)
              ~demand ~out_bytes:p.cgi_out_bytes
              ~replay:(demand_arg demand :: xb)
          end
        else file_kind (Sim.Dist.Zipf.draw file_pop rng_file)
      in
      { Trace.id; kind })

let adl_scaled ~seed ~n =
  let scale = float_of_int n /. float_of_int default_adl.n_requests in
  let params =
    {
      default_adl with
      n_requests = n;
      n_hot = Stdlib.max 8 (int_of_float (float_of_int default_adl.n_hot *. scale));
      n_files =
        Stdlib.max 16 (int_of_float (float_of_int default_adl.n_files *. scale));
    }
  in
  adl ~seed ~params ()

let coop ~seed ~n ~n_unique ?(n_hot = 120) ?(zipf_s = 0.8) ?(demand = 1.0)
    ?(out_bytes = 4096) ?(locality = 1.0) () =
  if n_unique > n then invalid_arg "Synthetic.coop: n_unique > n";
  if n_hot > n_unique then invalid_arg "Synthetic.coop: n_hot > n_unique";
  if n_hot < 1 then invalid_arg "Synthetic.coop: n_hot must be >= 1";
  if locality <= 0. then invalid_arg "Synthetic.coop: locality must be > 0";
  let rng = Sim.Rng.create seed in
  let rng_rep = Sim.Rng.split rng in
  let rng_pos = Sim.Rng.split rng in
  let n_repeats = n - n_unique in
  (* Occurrence counts: every unique key once, plus n_repeats extras spread
     over the hot keys by Zipf weight. *)
  let occurrences = Array.make n_unique 1 in
  let hot_pop = Sim.Dist.Zipf.make ~n:n_hot ~s:zipf_s in
  for _ = 1 to n_repeats do
    let k = Sim.Dist.Zipf.draw hot_pop rng_rep in
    occurrences.(k) <- occurrences.(k) + 1
  done;
  (* Position each occurrence on a virtual timeline; repeats of a key follow
     its first occurrence at exponentially-distributed gaps of mean
     [locality] (fraction of the trace), clustering references. *)
  let pos = Array.make n 0. and key = Array.make n 0 in
  let i = ref 0 in
  for k = 0 to n_unique - 1 do
    let p = ref (Sim.Rng.float rng_pos) in
    for _ = 1 to occurrences.(k) do
      pos.(!i) <- !p;
      key.(!i) <- k;
      incr i;
      p := !p +. Sim.Dist.exponential rng_pos ~mean:locality
    done
  done;
  (* Trace order is ascending (position, key). That order is total, and
     equal pairs make equal items, so the trace is the same whatever the
     sort's tie order. *)
  let order = Array.init n Fun.id in
  Array.stable_sort
    (fun a b ->
      let c = Float.compare pos.(a) pos.(b) in
      if c <> 0 then c else Int.compare key.(a) key.(b))
    order;
  let replay = replay_args ~demand ~out_bytes in
  let kinds =
    Array.init n_unique (fun k ->
        cgi_kind ~script:query_script
          ~qkey:(Printf.sprintf "key%05d" k)
          ~demand ~out_bytes ~replay)
  in
  List.init n (fun id -> { Trace.id; kind = kinds.(key.(order.(id))) })

(* One request per key: nothing repeats, so only the replay args are
   shared. *)
let one_per_key ~script ~prefix ~n ~demand =
  let replay = replay_args ~demand ~out_bytes:4096 in
  List.init n (fun id ->
      {
        Trace.id;
        kind =
          cgi_kind ~script
            ~qkey:(Printf.sprintf "%s%06d" prefix id)
            ~demand ~out_bytes:4096 ~replay;
      })

let unique_cacheable ~n ~demand =
  one_per_key ~script:unique_script ~prefix:"u" ~n ~demand

let uncacheable ~n ~demand =
  one_per_key ~script:private_script ~prefix:"p" ~n ~demand

let register_scripts registry =
  let from_query = Cgi.Cost.From_query { default = 1.0 } in
  Cgi.Registry.register registry
    (Cgi.Script.make ~name:query_script
       (Cgi.Cost.make ~output_bytes:8_192 from_query));
  Cgi.Registry.register registry
    (Cgi.Script.make ~name:unique_script
       (Cgi.Cost.make ~output_bytes:4_096 from_query));
  Cgi.Registry.register registry
    (Cgi.Script.make ~cacheable:false ~name:private_script
       (Cgi.Cost.make ~output_bytes:4_096 from_query));
  Cgi.Registry.register registry Cgi.Script.null

let register_trace_files registry trace =
  List.iter
    (fun (item : Trace.item) ->
      match item.Trace.kind with
      | Trace.File { path; bytes } ->
          Cgi.Registry.register_file registry ~path ~bytes
      | Trace.Cgi _ -> ())
    trace
