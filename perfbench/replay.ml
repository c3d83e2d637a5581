(* Replay drivers: time calls into one layer's public functions from
   outside the cluster, driven by the workload's own trace — its keys,
   output sizes, CGI demands and the run's response times.

   Each replay driver prepares its input untimed, then times one batch of
   [ops] calls in host CPU time. Batches repeat until its budget is spent
   (at least three times) and the fastest one is kept: host noise only
   ever adds time. Minor words per op come from the same batches. *)

type measure = { ns_per_op : float; words_per_op : float }

let measure ~budget ~ops prepare =
  let best = ref infinity and words = ref infinity and k = ref 0 in
  let deadline = Sys.time () +. budget in
  while !k < 3 || Sys.time () < deadline do
    let batch = prepare () in
    let m0 = Gc.minor_words () in
    let t0 = Sys.time () in
    batch ();
    let t1 = Sys.time () in
    let m1 = Gc.minor_words () in
    best := Float.min !best (t1 -. t0);
    words := Float.min !words (m1 -. m0);
    incr k
  done;
  let ops = float_of_int (max 1 ops) in
  { ns_per_op = !best *. 1e9 /. ops; words_per_op = !words /. ops }

(* The trace's CGI requests as the layers see them. *)
type input = {
  items : Workload.Trace.item array;  (** every request, files included *)
  keys : string array;  (** cache keys of the CGI requests, in trace order *)
  sizes : int array;  (** their output bytes *)
  demands : float array;  (** their CPU demands, seconds *)
  scripts : Cgi.Script.t array;
  response_times : float array;  (** client response times of the run *)
}

let input trace ~response_times =
  let registry = Cgi.Registry.create () in
  Workload.Synthetic.register_scripts registry;
  let cgis =
    List.filter_map
      (fun (item : Workload.Trace.item) ->
        match item.kind with
        | Workload.Trace.Cgi { script; demand; out_bytes; _ } -> (
            match Cgi.Registry.find_script registry script with
            | Some s -> Some (Workload.Trace.key item, out_bytes, demand, s)
            | None -> None)
        | Workload.Trace.File _ -> None)
      trace
    |> Array.of_list
  in
  {
    items = Array.of_list trace;
    keys = Array.map (fun (k, _, _, _) -> k) cgis;
    sizes = Array.map (fun (_, b, _, _) -> b) cgis;
    demands = Array.map (fun (_, _, d, _) -> d) cgis;
    scripts = Array.map (fun (_, _, _, s) -> s) cgis;
    response_times;
  }

(* Bodies are shared per size: the layers store and copy them but never
   look inside, and synthesising them is the cgi replay's job. *)
let bodies inp =
  let by_size = Hashtbl.create 64 in
  Array.map
    (fun b ->
      match Hashtbl.find_opt by_size b with
      | Some s -> s
      | None ->
          let s = String.make b 'x' in
          Hashtbl.add by_size b s;
          s)
    inp.sizes

let metas inp ~nodes =
  Array.mapi
    (fun i key ->
      Cache.Meta.make ~key ~owner:(i mod nodes) ~size:inp.sizes.(i)
        ~exec_time:inp.demands.(i) ~created:0. ~expires:None)
    inp.keys

let n_cgi inp = Array.length inp.keys
let no_charge (_ : float) = ()

(* cache.store: Store.insert over the CGI stream into an empty store of
   the workload's capacity and policy, then Store.lookup over it. *)
let store ~budget (cfg : Swala.Config.t) inp =
  let metas = metas inp ~nodes:1 and bodies = bodies inp in
  let fresh () =
    Cache.Store.create ~capacity:cfg.cache_capacity ~policy:cfg.policy
      ~clock:(fun () -> 0.)
      ~rng:(Sim.Rng.create 1) ()
  in
  let fill st =
    Array.iteri
      (fun i m ->
        ignore (Cache.Store.insert st m bodies.(i) : Cache.Meta.t list))
      metas
  in
  let insert =
    measure ~budget ~ops:(n_cgi inp) (fun () ->
        let st = fresh () in
        fun () -> fill st)
  in
  let filled = fresh () in
  fill filled;
  let lookup =
    measure ~budget ~ops:(n_cgi inp) (fun () () ->
        Array.iter
          (fun k ->
            ignore (Cache.Store.lookup filled k : Cache.Store.entry option))
          inp.keys)
  in
  (lookup, insert)

(* Replicated plane: Directory.insert of each key into its owner's table
   and Directory.lookup_from the requesting node, at the workload's node
   count and lock granularity. *)
let directory ~budget (cfg : Swala.Config.t) inp =
  let nodes = cfg.n_nodes in
  let metas = metas inp ~nodes in
  let fresh () =
    Cache.Directory.create ~granularity:cfg.dir_granularity
      ~lock_overhead:cfg.dir_lock_overhead ~charge:no_charge
      ~hints:cfg.dir_hints ~nodes ()
  in
  let fill d =
    Array.iteri
      (fun i m -> Cache.Directory.insert d ~node:(i mod nodes) m)
      metas
  in
  let insert =
    measure ~budget ~ops:(n_cgi inp) (fun () ->
        let d = fresh () in
        fun () -> fill d)
  in
  let filled = fresh () in
  fill filled;
  let lookup =
    measure ~budget ~ops:(n_cgi inp) (fun () () ->
        Array.iteri
          (fun i k ->
            ignore
              (Cache.Directory.lookup_from filled ~self:((i + 1) mod nodes)
                 ~now:0. k
                : Cache.Meta.t option))
          inp.keys)
  in
  (lookup, insert)

(* Sharded plane: Ring.owner on every key, then Shard_table.insert and
   Shard_table.probe as a key's home sees them. *)
let ring ~budget (cfg : Swala.Config.t) inp =
  let r = Cache.Ring.create ~nodes:cfg.n_nodes ~vnodes:cfg.shard_vnodes in
  measure ~budget ~ops:(n_cgi inp) (fun () () ->
      Array.iter (fun k -> ignore (Cache.Ring.owner r k : int)) inp.keys)

let shard_table ~budget (cfg : Swala.Config.t) inp =
  let metas = metas inp ~nodes:cfg.n_nodes in
  let fresh () =
    Cache.Shard_table.create ~lock_overhead:cfg.dir_lock_overhead
      ~charge:no_charge ()
  in
  let fill t =
    Array.iter
      (fun m ->
        ignore
          (Cache.Shard_table.insert t m
            : [ `Inserted | `Replaced of Cache.Meta.t | `Stale ]))
      metas
  in
  let insert =
    measure ~budget ~ops:(n_cgi inp) (fun () ->
        let t = fresh () in
        fun () -> fill t)
  in
  let filled = fresh () in
  fill filled;
  let probe =
    measure ~budget ~ops:(n_cgi inp) (fun () () ->
        Array.iter
          (fun k ->
            ignore
              (Cache.Shard_table.probe filled ~now:0. k : Cache.Meta.t option))
          inp.keys)
  in
  (probe, insert)

(* http: Request.parse of every request's wire form, and Response.to_wire
   of a 200 carrying the request's body size. *)
let http ~budget inp =
  let wires =
    Array.map
      (fun it -> Http.Request.to_wire (Workload.Trace.to_request it))
      inp.items
  in
  let ops = Array.length wires in
  let parse =
    measure ~budget ~ops (fun () () ->
        Array.iter
          (fun w ->
            ignore (Http.Request.parse w : (Http.Request.t, string) result))
          wires)
  in
  let by_size = Hashtbl.create 64 in
  let responses =
    Array.map
      (fun (it : Workload.Trace.item) ->
        let b =
          match it.kind with
          | Workload.Trace.File { bytes; _ } -> bytes
          | Workload.Trace.Cgi { out_bytes; _ } -> out_bytes
        in
        match Hashtbl.find_opt by_size b with
        | Some r -> r
        | None ->
            let r = Http.Response.ok (String.make b 'x') in
            Hashtbl.add by_size b r;
            r)
      inp.items
  in
  let render =
    measure ~budget ~ops (fun () () ->
        Array.iter
          (fun r -> ignore (Http.Response.to_wire r : string))
          responses)
  in
  (parse, render)

(* cgi: Script.output_sized at the trace's output sizes. Returned per
   execution, with the mean KiB per execution to convert to per-KiB cost. *)
let cgi_body ~budget inp =
  let m =
    measure ~budget ~ops:(n_cgi inp) (fun () () ->
        Array.iteri
          (fun i s ->
            ignore
              (Cgi.Script.output_sized s ~key:inp.keys.(i) ~bytes:inp.sizes.(i)
                : string))
          inp.scripts)
  in
  let bytes = Array.fold_left ( + ) 0 inp.sizes in
  let kb_per_exec =
    float_of_int bytes /. 1024. /. float_of_int (max 1 (n_cgi inp))
  in
  (m, kb_per_exec)

(* metrics: Sample.add of the run's response times into a fresh sample,
   and one Sample.quantile (which sorts) over the filled sample. *)
let sample ~budget inp =
  let xs = inp.response_times in
  let fill () =
    let s = Metrics.Sample.create () in
    Array.iter (Metrics.Sample.add s) xs;
    s
  in
  let add =
    measure ~budget ~ops:(Array.length xs) (fun () () -> ignore (fill ()))
  in
  let quantile =
    measure ~budget ~ops:1 (fun () ->
        let s = fill () in
        fun () -> ignore (Metrics.Sample.quantile s 0.999 : float))
  in
  let retained =
    let s = fill () in
    float_of_int (Obj.reachable_words (Obj.repr s))
    /. float_of_int (max 1 (Array.length xs))
  in
  (add, quantile, retained)

(* engine: one process per CGI request that delays for its demand —
   Engine.spawn, Engine.delay and Engine.run; two events per op. *)
let engine ~budget inp =
  measure ~budget ~ops:(n_cgi inp) (fun () ->
      let e = Sim.Engine.create () in
      fun () ->
        Array.iter
          (fun d -> Sim.Engine.spawn e (fun () -> Sim.Engine.delay d))
          inp.demands;
        Sim.Engine.run e)

(* Sim.Mailbox: a client sends every trace item to a server thread and
   waits for its reply, so each receive blocks and is resumed as on the
   server's listen and reply mailboxes. One op is one send + recv. *)
let mailbox ~budget inp =
  let n = Array.length inp.items in
  measure ~budget ~ops:(2 * n) (fun () ->
      let e = Sim.Engine.create () in
      fun () ->
        let requests = Sim.Mailbox.create () in
        let replies = Sim.Mailbox.create () in
        Sim.Engine.spawn e (fun () ->
            for _ = 1 to n do
              let (_ : Workload.Trace.item) = Sim.Mailbox.recv requests in
              Sim.Mailbox.send replies ()
            done);
        Sim.Engine.spawn e (fun () ->
            Array.iter
              (fun it ->
                Sim.Mailbox.send requests it;
                Sim.Mailbox.recv replies)
              inp.items);
        Sim.Engine.run e)

(* Sim.Cpu: eight jobs share one node's processors, each consuming every
   eighth CGI demand in turn. *)
let cpu ~budget (cfg : Swala.Config.t) inp =
  let jobs = 8 in
  measure ~budget ~ops:(n_cgi inp) (fun () ->
      let e = Sim.Engine.create () in
      fun () ->
        let cpu = Sim.Cpu.create e ~cores:cfg.cores_per_node in
        for j = 0 to jobs - 1 do
          Sim.Engine.spawn e (fun () ->
              let i = ref j in
              while !i < Array.length inp.demands do
                Sim.Cpu.consume cpu inp.demands.(!i);
                i := !i + jobs
              done)
        done;
        Sim.Engine.run e)
