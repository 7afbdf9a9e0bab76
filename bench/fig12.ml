(* Figure 12: query_order throughput vs graph density.

   Erdős–Rényi event dependency graphs over 10,000 vertices with expected
   edge counts swept from 5e2 to 5e6.  The paper reports hundreds of
   thousands of queries per second on sparse graphs, dropping with density
   to a plateau once most vertices share one giant component. *)

open Kronos
module Rng = Kronos_simnet.Rng
module Graph_gen = Kronos_workload.Graph_gen

(* Load an undirected ER graph as a DAG by orienting every edge from the
   lower to the higher vertex id, which guarantees acyclicity.  The bulk
   load bypasses assign_order's per-edge coherency BFS (provably redundant
   under this orientation) so the dense configurations build in seconds. *)
let load_er engine ~rng ~n ~m =
  let g = Graph_gen.erdos_renyi_gnm ~rng ~n ~m in
  let ids = Array.init n (fun _ -> Engine.create_event engine) in
  let graph = Engine.graph engine in
  Array.iter
    (fun (u, v) ->
      let u, v = if u < v then (u, v) else (v, u) in
      Graph.add_edge graph ids.(u) ids.(v))
    g.Graph_gen.edges;
  ids

let measure_queries engine ids ~rng ~duration =
  let n = Array.length ids in
  let ops = ref 0 in
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < duration do
    (* batch of 100 random pairs per wall-clock check *)
    for _ = 1 to 100 do
      let a = ids.(Rng.int rng n) and b = ids.(Rng.int rng n) in
      match Engine.query_order engine [ (a, b) ] with
      | Ok _ -> incr ops
      | Error _ -> assert false
    done
  done;
  float_of_int !ops /. (Unix.gettimeofday () -. t0)

let run () =
  Bench_util.section "Figure 12: query_order throughput vs Erdos-Renyi density";
  Bench_util.paper
    "10k vertices; ~1e5-1e6 q/s below ~3 edges/vertex, falling to a plateau ~1e3-1e4 q/s";
  let n = 10_000 in
  let duration = if !Bench_util.full_scale then 2.0 else 0.5 in
  Printf.printf "  %14s %12s %16s\n%!" "edges" "edges/vertex" "throughput";
  let edge_counts = [ 500; 5_000; 50_000; 500_000; 5_000_000 ] in
  List.iter
    (fun m ->
      let m = min m (n * (n - 1) / 2) in
      let rng = Rng.create ~seed:(Int64.of_int (1000 + m)) in
      let engine = Engine.create () in
      let ids = load_er engine ~rng ~n ~m in
      let throughput = measure_queries engine ids ~rng ~duration in
      Printf.printf "  %14d %12.1f %16s\n%!" m
        (float_of_int m /. float_of_int n)
        (Bench_util.pp_ops throughput))
    edge_counts;
  Bench_util.ours
    "shape check: sparse graphs orders of magnitude faster than dense; plateau at high density"
