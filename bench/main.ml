(* Benchmark driver: regenerates every figure of the paper's evaluation.

   Usage:
     dune exec bench/main.exe                 -- all experiments, quick scale
     dune exec bench/main.exe -- fig7 fig12   -- selected experiments
     dune exec bench/main.exe -- --full       -- paper-scale parameters *)

let experiments : (string * (unit -> unit)) list =
  [ ("fig9", Kronos_bench.Fig9.run);
    ("fig10", Kronos_bench.Fig10.run);
    ("fig11", Kronos_bench.Fig11.run);
    ("fig12", Kronos_bench.Fig12.run);
    ("micro", Kronos_bench.Micro.run);
    ("smoke", Kronos_bench.Smoke.run);
    ("smoke-check", Kronos_bench.Smoke.check);
    ("ablation", Kronos_bench.Ablation.run);
    ("durability", Kronos_bench.Durability_bench.run);
    ("fig6", Kronos_bench.Fig6.run);
    ("fig7", Kronos_bench.Fig7.run);
    ("fig8", Kronos_bench.Fig8.run);
    ("fig13", Kronos_bench.Fig13.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args || Sys.getenv_opt "KRONOS_BENCH_FULL" <> None in
  Kronos_bench.Bench_util.full_scale := full;
  let selected = List.filter (fun a -> a <> "--full") args in
  let to_run =
    if selected = [] then experiments
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> Some (name, f)
          | None ->
            Printf.eprintf "unknown experiment %S (available: %s)\n" name
              (String.concat ", " (List.map fst experiments));
            exit 2)
        selected
  in
  Printf.printf "Kronos benchmark harness (%s scale)\n"
    (if full then "full" else "quick");
  List.iter (fun (_, f) -> f ()) to_run
