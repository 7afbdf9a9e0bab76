(* Figure 8: query_order scalability with the number of replicas.

   The paper pre-loads a random graph (10k vertices / 50k edges), runs 64
   clients issuing query_order against the replica set, and shows aggregate
   throughput growing near-linearly from 2 to 12 servers — possible because
   the monotonicity invariant lets stale replicas answer ordered queries
   without validation (Section 2.5).

   Each replica charges a fixed virtual busy time per request: the mean
   wall-clock cost of a random query_order on the same graph, measured
   once on a scratch engine before the runs, so the scaling curve reflects
   genuine BFS work and every replica count is charged the same cost. *)

open Kronos
open Kronos_simnet
module Graph_gen = Kronos_workload.Graph_gen
module Message = Kronos_wire.Message

let clients = 128
let vertices = 10_000
let edges = 50_000

(* Pre-load the same deterministic graph into every replica's engine
   directly (the engines are identical state machines, so identical loads
   leave identical states — exactly what replicating the load through the
   chain would produce, minus hours of simulated traffic).  Edges are
   oriented low -> high, hence acyclic by construction. *)
let preload cluster ~graph =
  let ids = ref [||] in
  List.iter
    (fun (_, engine) ->
      let engine = !engine in
      let eids = Array.init vertices (fun _ -> Engine.create_event engine) in
      let g = Engine.graph engine in
      Array.iter
        (fun (u, v) -> Graph.add_edge g eids.(u) eids.(v))
        graph.Graph_gen.edges;
      ids := eids)
    cluster.Kronos_service.Server.replicas;
  !ids

(* Mean wall-clock cost of one random query_order on the experiment graph,
   measured on a scratch engine.  Using this as each replica's (fixed)
   per-request service time keeps the scaling curve grounded in the real
   BFS work while excluding GC-pause noise from the simulation. *)
let measured_query_cost ~graph:(g : Graph_gen.t) =
  let engine = Engine.create () in
  let ids = Array.init vertices (fun _ -> Engine.create_event engine) in
  let gr = Engine.graph engine in
  Array.iter (fun (u, v) -> Graph.add_edge gr ids.(u) ids.(v)) g.Graph_gen.edges;
  let rng = Rng.create ~seed:123L in
  let samples = 2_000 in
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to samples do
    let a = ids.(Rng.int rng vertices) and b = ids.(Rng.int rng vertices) in
    ignore (Engine.query_order engine [ (a, b) ])
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int samples

let measure ~replicas ~seed ~window ~service_cost =
  let sim = Sim.create ~seed () in
  let raw = Net.create sim in
  let addrs = List.init replicas (fun i -> i) in
  let price = Kronos_replication.Chain.Replica.service service_cost in
  List.iter (fun a -> Net.set_service raw a price) addrs;
  let net = Kronos_transport.Sim_transport.of_net raw in
  let cluster =
    Kronos_service.Server.deploy ~net ~coordinator:1000 ~replicas:addrs
      ~failure_timeout:3600.0 ()
  in
  let rng = Rng.create ~seed:77L in
  let g = Graph_gen.erdos_renyi_gnm ~rng ~n:vertices ~m:edges in
  let ids = preload cluster ~graph:g in
  (* random pairs, as in the paper ("random query_order requests on the
     graph, checking for preexisting relationships").  The workload is
     read-only, so every replica is provably current and concurrent answers
     need no tail validation — which is what lets the reads apportion. *)
  ignore (Array.length g.Graph_gen.edges);
  let pick_pair rng = (ids.(Rng.int rng vertices), ids.(Rng.int rng vertices)) in
  Gc.full_major ();  (* keep GC pauses out of the measured service times *)
  let completed = ref 0 in
  let started = Sim.now sim in
  let stop_at = started +. window in
  let rec loop client rng =
    if Sim.now sim < stop_at then begin
      (* cache off: we are measuring the service, not the client cache *)
      Kronos_service.Client.query_order client ~stale:true ~revalidate:false
        [ pick_pair rng ]
        (fun _ ->
          incr completed;
          loop client rng)
    end
  in
  for i = 0 to clients - 1 do
    let client =
      Kronos_service.Client.create ~net ~addr:(5000 + i) ~coordinator:1000
        ~cache_capacity:0 ~request_timeout:30.0 ()
    in
    loop client (Rng.split (Sim.rng sim))
  done;
  Sim.run ~until:stop_at sim;
  float_of_int !completed /. window

let run () =
  Bench_util.section "Figure 8: query_order throughput vs number of replicas";
  Bench_util.paper
    "near-linear scaling from 2 to 12 servers (paper peaks ~5-6M ops/s; absolute numbers testbed-specific)";
  let window = if !Bench_util.full_scale then 20.0 else 5.0 in
  let replica_counts = [ 2; 4; 6; 8; 10; 12 ] in
  let rng = Rng.create ~seed:77L in
  let service_cost =
    measured_query_cost ~graph:(Graph_gen.erdos_renyi_gnm ~rng ~n:vertices ~m:edges)
  in
  Bench_util.note "  (per-query service cost, measured on the real engine: %s)"
    (Bench_util.pp_ns (service_cost *. 1e9));
  Printf.printf "  %10s %16s %18s\n%!" "replicas" "throughput" "vs 2 replicas";
  let rows =
    List.map
      (fun replicas -> (replicas, measure ~replicas ~seed:5L ~window ~service_cost))
      replica_counts
  in
  let base = snd (List.hd rows) in
  List.iter
    (fun (replicas, tput) ->
      Printf.printf "  %10d %16s %17.2fx\n%!" replicas (Bench_util.pp_ops tput)
        (tput /. base))
    rows;
  (* Each added pair of replicas must add at least [min_gain] of the
     previous row's throughput; the first row where it does not is where
     the 128 closed-loop clients, not the replicas, became the limit. *)
  let min_gain = 0.05 in
  let rec first_flat = function
    | (_, a) :: ((r, b) :: _ as rest) ->
      if b < a *. (1. +. min_gain) then Some r else first_flat rest
    | [ _ ] | [] -> None
  in
  let last, top = List.nth rows (List.length rows - 1) in
  match first_flat rows with
  | None ->
    Bench_util.ours
      "shape check: aggregate throughput grows with each added replica, %.2fx at \
       %d (stale reads scale)"
      (top /. base) last
  | Some r ->
    Bench_util.ours
      "shape check: NOT reproduced: throughput gains under %.0f%% from %d \
       replicas on (%.2fx at %d): the closed-loop clients saturate before the \
       replicas do"
      (100. *. min_gain) r (top /. base) last
