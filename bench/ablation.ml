(* Ablations.

   - The shard-side order cache with transitive pre-fill (Section 3.2):
     re-runs the Figure 6 KronoGraph workload on the Twitter-like graph
     with the cache effectively disabled (capacity 1), so every
     per-vertex ordering requires a Kronos round trip.
   - The chain-label index (DESIGN.md §15) at the engine level: heap
     bytes per event and build time of the read_wide and mixed_rw
     preloads under the default config ([max_chains] 64) and with labels
     off ([max_chains] 0), and whether labels are still live at the end
     of the build: the default config drops them once the cap saturates,
     as it does early in read_wide's preload. *)

module Rng = Kronos_simnet.Rng
module Graph_gen = Kronos_workload.Graph_gen

let order_cache () =
  Bench_util.section "Ablation: KronoGraph shard order-cache on vs off";
  let rng = Rng.create ~seed:21L in
  let quick = not !Bench_util.full_scale in
  let graph = Graph_gen.twitter_like ~rng ~scale:(if quick then 0.05 else 0.5) () in
  let ops = Bench_util.scaled 400 2_000 in
  let with_cache, _, frac_with =
    Fig6.run_kronograph ~seed:3L ~graph ~ops ()
  in
  let without_cache, _, frac_without =
    Fig6.run_kronograph ~shard_cache_capacity:1 ~seed:3L ~graph ~ops ()
  in
  Printf.printf "  cache on:   %8.0f ops/s  (traversal fraction %.1f%%)\n" with_cache
    (100.0 *. frac_with);
  Printf.printf "  cache off:  %8.0f ops/s  (traversal fraction %.1f%%)\n%!"
    without_cache (100.0 *. frac_without);
  Bench_util.ours "caching yields %.2fx throughput on the Twitter-like workload"
    (with_cache /. without_cache)

(* mixed_rw's preload graph, as perfbench builds it: 16 session chains of
   64 events, and for 1 in 16 events a must edge from another chain's
   previous position.  Returns the event count and the edges (by event
   index) in order. *)
let mixed_preload () =
  let sessions = 16 and len = 64 in
  let rng = Rng.create ~seed:5L in
  let id s i = (s * len) + i in
  let edges = ref [] in
  for s = 0 to sessions - 1 do
    for i = 1 to len - 1 do
      edges := (id s (i - 1), id s i) :: !edges;
      if Rng.int rng 16 = 0 then begin
        let s' = (s + 1 + Rng.int rng (sessions - 1)) mod sessions in
        edges := (id s' (i - 1), id s i) :: !edges
      end
    done
  done;
  (sessions * len, Array.of_list (List.rev !edges))

(* read_wide's preload graph: G(10k,50k), every edge low -> high. *)
let wide_preload () =
  let n = 10_000 in
  let g = Graph_gen.erdos_renyi_gnm ~rng:(Rng.create ~seed:77L) ~n ~m:50_000 in
  (n, Array.map (fun (u, v) -> (min u v, max u v)) g.Graph_gen.edges)

(* One preload into a fresh engine: all events, then the edges as Must
   batches of 1000, as perfbench's preload sends them.  Returns the heap
   bytes the engine holds per event (live words after a compaction), the
   build time in seconds, the best of five builds, and whether labels
   are live at the end. *)
let build_preload ~max_chains (n, edges) =
  let open Kronos in
  let word = Sys.word_size / 8 in
  let m = Array.length edges in
  let best = ref infinity and bytes = ref 0 and live = ref false in
  for _ = 1 to 5 do
    Gc.compact ();
    let w0 = (Gc.stat ()).Gc.live_words in
    let t0 = Unix.gettimeofday () in
    let engine =
      Engine.create ~config:{ Engine.default_config with max_chains } ()
    in
    for _ = 1 to n do
      ignore (Engine.create_event engine)
    done;
    (* a fresh engine mints slot [i] for its [i]-th event; rebuilding ids
       keeps an id array out of the measured heap *)
    let id i = Event_id.make ~slot:i ~gen:0 in
    for b = 0 to (m - 1) / 1000 do
      let specs =
        List.init
          (min 1000 (m - (b * 1000)))
          (fun k ->
            let u, v = edges.((b * 1000) + k) in
            Order.must_before (id u) (id v))
      in
      match Engine.assign_order engine specs with
      | Ok _ -> ()
      | Error _ -> failwith "ablation: a preload batch aborted"
    done;
    best := Float.min !best (Unix.gettimeofday () -. t0);
    Gc.compact ();
    bytes := ((Gc.stat ()).Gc.live_words - w0) * word;
    live := Engine.labels_live engine;
    ignore (Sys.opaque_identity engine)
  done;
  (float_of_int !bytes /. float_of_int n, !best, !live)

let labels () =
  Bench_util.section
    "Ablation: chain labels, default config vs off (engine-level preloads)";
  Printf.printf "  %-10s %-13s %-8s %14s %12s\n%!" "preload" "max_chains"
    "labels" "heap B/event" "build ms";
  List.iter
    (fun (name, graph) ->
      List.iter
        (fun (max_chains, what) ->
          let per_event, secs, live = build_preload ~max_chains graph in
          Printf.printf "  %-10s %-13s %-8s %14.0f %12.1f\n%!" name what
            (if live then "live" else if max_chains > 0 then "dropped"
             else "off")
            per_event (secs *. 1e3))
        [ (Kronos.Engine.default_config.max_chains, "64 (default)"); (0, "0") ])
    [ ("read_wide", wide_preload ()); ("mixed_rw", mixed_preload ()) ]

let run () =
  order_cache ();
  labels ()
