(* KronoGraph (Section 3.2): a sharded, strongly consistent graph store in
   which isolation comes from Kronos's late time binding instead of locks.
   Builds a small social graph, asks for friend recommendations while the
   graph mutates, and shows the atomic-update guarantee from the paper's
   A−B / B−C example.

   Run with: dune exec examples/graph_traversal.exe *)

open Kronos_simnet
open Kronos_graphstore

let () =
  Format.printf "== KronoGraph (Section 3.2) ==@.";
  let sim = Sim.create ~seed:7L () in
  (* replicated Kronos service *)
  let chain_net = Kronos_transport.Sim_transport.of_net (Net.create sim) in
  ignore
    (Kronos_service.Server.deploy ~net:chain_net ~coordinator:1000
       ~replicas:[ 0; 1; 2 ] ());
  (* four graph shards, each with its own Kronos client *)
  let gnet = Net.create sim in
  let shard_addrs = Array.init 4 (fun i -> i) in
  let shards =
    Array.map
      (fun a ->
        let kronos =
          Kronos_service.Client.create ~net:chain_net ~addr:(3000 + a)
            ~coordinator:1000 ()
        in
        Kshard.create ~net:gnet ~addr:a ~kronos)
      shard_addrs
  in
  let kronos =
    Kronos_service.Client.create ~net:chain_net ~addr:4000 ~coordinator:1000 ()
  in
  let g = Kgraph.create ~net:gnet ~addr:5000 ~kronos ~shards:shard_addrs () in
  let await f =
    let r = ref None in
    f (fun x -> r := Some x);
    while !r = None && Sim.pending sim > 0 do
      ignore (Sim.step sim)
    done;
    Option.get !r
  in

  (* build: 1 knows 2,3; both know 4; 2 knows 5 *)
  List.iter
    (fun (u, v) -> await (fun k -> Kgraph.add_friendship g u v (fun () -> k ())))
    [ (1, 2); (1, 3); (2, 4); (3, 4); (2, 5) ];
  Format.printf "graph built; neighbors of 1: %s@."
    (String.concat ", " (List.map string_of_int (await (fun k -> Kgraph.neighbors g 1 k))));
  (match await (fun k -> Kgraph.recommend g 1 k) with
   | Some w -> Format.printf "friend recommendation for 1: %d (most mutual friends)@." w
   | None -> Format.printf "no recommendation@.");

  (* the paper's atomicity example: remove A-B and add B-C as ONE event;
     a concurrent traversal never observes the half-applied state *)
  Format.printf "@.-- atomic edge switch under concurrent queries --@.";
  let a = 10 and b = 11 and c = 12 in
  await (fun k -> Kgraph.add_friendship g a b (fun () -> k ()));
  let violations = ref 0 in
  let queries = ref 0 in
  let rec flip to_c n =
    if n > 0 then
      Kgraph.batch_update g
        (if to_c then
           [ (a, G_msg.Remove_edge b); (b, G_msg.Remove_edge a);
             (b, G_msg.Add_edge c); (c, G_msg.Add_edge b) ]
         else
           [ (b, G_msg.Remove_edge c); (c, G_msg.Remove_edge b);
             (a, G_msg.Add_edge b); (b, G_msg.Add_edge a) ])
        (fun () -> flip (not to_c) (n - 1))
  in
  let rec probe n =
    if n > 0 then
      Kgraph.recommend g a (fun r ->
          incr queries;
          if r = Some c then incr violations;
          probe (n - 1))
  in
  flip true 20;
  probe 40;
  (* bounded: the replicated service pings forever, so don't drain the sim *)
  Sim.run ~until:(Sim.now sim +. 300.0) sim;
  Format.printf "ran %d concurrent traversals during 20 atomic flips@." !queries;
  Format.printf "traversals that saw C reachable from A (must be 0): %d@." !violations;

  let fast = Array.fold_left (fun acc s -> acc + Kshard.fast_path_ops s) 0 shards in
  let batches = Array.fold_left (fun acc s -> acc + Kshard.kronos_batches s) 0 shards in
  let ops = Array.fold_left (fun acc s -> acc + Kshard.operations s) 0 shards in
  Format.printf "@.shard ops: %d, kronos batches: %d, cache fast-path: %d@."
    ops batches fast
