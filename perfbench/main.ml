(* main.exe (e2e | layers) --workload NAME --seed N --seconds S [--out DIR]

   Prints every metric by name with its unit, then one JSON result line.
   Exits 1 if a check fails. run.py builds and drives this. *)

let () =
  let mode = ref "" and workload = ref "" and seed = ref 1 in
  let seconds = ref 10. and out = ref "." in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S time budget of the measurement");
      ("--out", Arg.Set_string out, "DIR for the traced breakdown");
    ]
  in
  let usage = "main.exe (e2e | layers) --workload NAME --seed N --seconds S" in
  Arg.parse spec (fun m -> mode := m) usage;
  let names =
    List.map (fun w -> w.Perfbench.Workloads.name) Perfbench.Workloads.all
  in
  match Perfbench.Workloads.find !workload with
  | None ->
      Printf.eprintf "unknown workload %S (one of %s)\n" !workload
        (String.concat ", " names);
      exit 2
  | Some w ->
      let n = w.n_requests in
      let outcome =
        match !mode with
        | "e2e" -> Perfbench.Bench.e2e w ~seed:!seed ~seconds:!seconds ~n
        | "layers" ->
            Perfbench.Bench.layers w ~seed:!seed ~seconds:!seconds ~n ~out:!out
        | m ->
            Printf.eprintf "unknown mode %S\n%s\n" m usage;
            exit 2
      in
      exit (Perfbench.Bench.report outcome)
