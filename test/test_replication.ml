open Kronos_simnet
open Kronos_replication
module Sim_transport = Kronos_transport.Sim_transport

(* Proxy callbacks now yield results; these tests never set deadlines, so a
   timeout error is a test failure. *)
let ok = function
  | Ok r -> r
  | Error `Timeout -> Alcotest.fail "unexpected proxy timeout"

type cluster = {
  sim : Sim.t;
  net : Chain.msg Kronos_transport.Transport.t;
  replicas : Chain.Replica.t array;
  coordinator : Chain.Coordinator.t;
}

let coordinator_addr = 1000

(* [service] prices every replica's messages on the network's capacity
   model ([Chain.Replica.service]). *)
let make_cluster ?(n = 3) ?(seed = 7L) ?service () =
  let sim = Sim.create ~seed () in
  let raw = Net.create sim in
  let chain = List.init n (fun i -> i) in
  Option.iter
    (fun cost ->
      List.iter (fun a -> Net.set_service raw a (Chain.Replica.service cost)) chain)
    service;
  let net = Sim_transport.of_net raw in
  let replicas = Array.init n (fun i -> Toy_replica.register ~net ~addr:i ()) in
  let coordinator =
    Chain.Coordinator.create ~net ~addr:coordinator_addr ~chain
      ~ping_interval:0.1 ~failure_timeout:0.35 ()
  in
  { sim; net; replicas; coordinator }

let make_proxy ?(addr = 2000) cluster =
  Proxy.create ~net:cluster.net ~addr ~coordinator:coordinator_addr
    ~request_timeout:0.4 ()

let test_basic_write_read () =
  let c = make_cluster () in
  let proxy = make_proxy c in
  let results = ref [] in
  Proxy.write proxy "add:5" (fun r -> results := ("w1", ok r) :: !results);
  Proxy.write proxy "add:7" (fun r -> results := ("w2", ok r) :: !results);
  Sim.run ~until:2.0 c.sim;
  Proxy.read proxy "get" (fun r -> results := ("r", ok r) :: !results);
  Sim.run ~until:4.0 c.sim;
  let find k = List.assoc k !results in
  Alcotest.(check string) "first write" "5" (find "w1");
  Alcotest.(check string) "second write" "12" (find "w2");
  Alcotest.(check string) "tail read" "12" (find "r");
  Alcotest.(check int) "no outstanding" 0 (Proxy.outstanding proxy)

let test_all_replicas_converge () =
  let c = make_cluster ~n:4 () in
  let proxy = make_proxy c in
  for i = 1 to 10 do
    Proxy.write proxy (Printf.sprintf "add:%d" i) ignore
  done;
  Sim.run ~until:5.0 c.sim;
  Array.iter
    (fun r ->
      Alcotest.(check int) "applied" 10 (Chain.Replica.last_applied r))
    c.replicas;
  (* all pending entries acknowledged *)
  Array.iter
    (fun r -> Alcotest.(check int) "no pending" 0 (Chain.Replica.pending_count r))
    c.replicas

let test_read_any_replica () =
  let c = make_cluster ~n:3 () in
  let proxy = make_proxy c in
  Proxy.write proxy "add:3" ignore;
  Sim.run ~until:2.0 c.sim;
  let answers = ref [] in
  Proxy.read proxy ~target:(Proxy.Nth 0) "get" (fun r -> answers := ok r :: !answers);
  Proxy.read proxy ~target:(Proxy.Nth 1) "get" (fun r -> answers := ok r :: !answers);
  Proxy.read proxy ~target:Proxy.Tail "get" (fun r -> answers := ok r :: !answers);
  Sim.run ~until:4.0 c.sim;
  Alcotest.(check (list string)) "replicas agree" [ "3"; "3"; "3" ] !answers

let test_middle_failure_recovery () =
  let c = make_cluster ~n:3 () in
  let proxy = make_proxy c in
  Proxy.write proxy "add:1" ignore;
  Sim.run ~until:1.0 c.sim;
  (* kill the middle replica *)
  Chain.Replica.crash c.replicas.(1);
  Sim.run ~until:3.0 c.sim;
  (* coordinator must have removed it *)
  let cfg = Chain.Coordinator.config c.coordinator in
  Alcotest.(check (list int)) "chain shrank" [ 0; 2 ] cfg.Chain.chain;
  (* writes keep working *)
  let result = ref None in
  Proxy.write proxy "add:10" (fun r -> result := Some (ok r));
  Sim.run ~until:6.0 c.sim;
  Alcotest.(check (option string)) "write after failure" (Some "11") !result;
  Alcotest.(check int) "survivor tail applied" 2
    (Chain.Replica.last_applied c.replicas.(2))

let test_head_failure_recovery () =
  let c = make_cluster ~n:3 () in
  let proxy = make_proxy c in
  Proxy.write proxy "add:1" ignore;
  Sim.run ~until:1.0 c.sim;
  Chain.Replica.crash c.replicas.(0);
  Sim.run ~until:3.0 c.sim;
  let cfg = Chain.Coordinator.config c.coordinator in
  Alcotest.(check (list int)) "new head" [ 1; 2 ] cfg.Chain.chain;
  let result = ref None in
  Proxy.write proxy "add:20" (fun r -> result := Some (ok r));
  Sim.run ~until:6.0 c.sim;
  Alcotest.(check (option string)) "write served by new head" (Some "21") !result

let test_tail_failure_recovery () =
  let c = make_cluster ~n:3 () in
  let proxy = make_proxy c in
  Proxy.write proxy "add:1" ignore;
  Sim.run ~until:1.0 c.sim;
  Chain.Replica.crash c.replicas.(2);
  (* a write racing with the failure must still complete (via retry) *)
  let result = ref None in
  Proxy.write proxy "add:2" (fun r -> result := Some (ok r));
  Sim.run ~until:6.0 c.sim;
  let cfg = Chain.Coordinator.config c.coordinator in
  Alcotest.(check (list int)) "tail removed" [ 0; 1 ] cfg.Chain.chain;
  Alcotest.(check (option string)) "write completed" (Some "3") !result;
  Alcotest.(check string) "new tail reads" "3"
    (let answer = ref "" in
     Proxy.read proxy "get" (fun r -> answer := ok r);
     Sim.run ~until:8.0 c.sim;
     !answer)

let test_join_fresh_replica () =
  let c = make_cluster ~n:2 () in
  let proxy = make_proxy c in
  for i = 1 to 5 do
    Proxy.write proxy (Printf.sprintf "add:%d" i) ignore
  done;
  Sim.run ~until:2.0 c.sim;
  (* bring in a fresh replica; it must receive the full history *)
  let fresh = Toy_replica.register ~net:c.net ~addr:9 () in
  Chain.Coordinator.join c.coordinator fresh;
  Sim.run ~until:4.0 c.sim;
  Alcotest.(check int) "history transferred" 5 (Chain.Replica.last_applied fresh);
  (* new writes flow through the extended chain and the fresh tail replies *)
  let result = ref None in
  Proxy.write proxy "add:100" (fun r -> result := Some (ok r));
  Sim.run ~until:6.0 c.sim;
  Alcotest.(check (option string)) "write via new tail" (Some "115") !result;
  Alcotest.(check int) "fresh tail applied" 6 (Chain.Replica.last_applied fresh);
  (* reads from the fresh tail see everything *)
  let answer = ref "" in
  Proxy.read proxy "get" (fun r -> answer := ok r);
  Sim.run ~until:8.0 c.sim;
  Alcotest.(check string) "read from fresh tail" "115" !answer

(* A transfer whose entries start past [last_applied + 1] must not be
   applied over the hole: the entries wait until the missing ones arrive.
   The [Sync_state] messages are forged, so no coordinator is needed. *)
let test_gapped_sync_waits () =
  let sim = Sim.create ~seed:5L () in
  let net = Sim_transport.of_net (Net.create sim) in
  let replica = Toy_replica.register ~net ~addr:0 () in
  let answers = ref [] in
  Kronos_transport.Transport.register net 501 (fun ~src:_ msg ->
      match (msg : Chain.msg) with
      | Chain.Reply { resp; _ } -> answers := resp :: !answers
      | _ -> ());
  let req = ref 0 in
  let read () =
    incr req;
    Kronos_transport.Transport.send net ~src:501 ~dst:0
      (Chain.Client_read { client = 501; req_id = !req; cmd = "get" });
    Sim.run ~until:(Sim.now sim +. 1.0) sim;
    List.hd !answers
  in
  let sync entries =
    Kronos_transport.Transport.send net ~src:500 ~dst:0
      (Chain.Sync_state
         { entries =
             List.map
               (fun (seq, n) -> (seq, 600, seq, Printf.sprintf "add:%d" n))
               entries });
    Sim.run ~until:(Sim.now sim +. 1.0) sim
  in
  sync [ (3, 4); (4, 8) ];
  Alcotest.(check int) "nothing applied past the gap" 0
    (Chain.Replica.last_applied replica);
  Alcotest.(check string) "state untouched" "0" (read ());
  sync [ (1, 1) ];
  Alcotest.(check int) "contiguous entry applied" 1
    (Chain.Replica.last_applied replica);
  Alcotest.(check string) "still waiting for 2" "1" (read ());
  sync [ (1, 1); (2, 2) ];
  Alcotest.(check int) "gap filled, waiting entries applied" 4
    (Chain.Replica.last_applied replica);
  Alcotest.(check string) "every entry applied once, in order" "15" (read ())

let test_exactly_once_writes () =
  (* Lossy links force retransmissions; dedup must keep each write applied
     exactly once. *)
  let sim = Sim.create ~seed:21L () in
  let net =
    Sim_transport.of_net
      (Net.create ~latency:{ Net.base = 1e-3; jitter = 1e-3; drop = 0.15 } sim)
  in
  let chain = [ 0; 1; 2 ] in
  let replicas = Array.init 3 (fun i -> Toy_replica.register ~net ~addr:i ()) in
  ignore
    (Chain.Coordinator.create ~net ~addr:coordinator_addr ~chain
       ~ping_interval:0.1 ~failure_timeout:5.0 ());
  let proxy =
    Proxy.create ~net ~addr:2000 ~coordinator:coordinator_addr
      ~request_timeout:0.25 ()
  in
  let completed = ref 0 in
  for _ = 1 to 20 do
    Proxy.write proxy "add:1" (fun _ -> incr completed)
  done;
  Sim.run ~until:60.0 sim;
  Alcotest.(check int) "all writes acknowledged" 20 !completed;
  Alcotest.(check bool) "retries happened" true (Proxy.retries proxy > 0);
  (* exactly-once: the register holds exactly 20 at every replica *)
  let answer = ref "" in
  Proxy.read proxy ~target:Proxy.Tail "get" (fun r -> answer := ok r);
  Sim.run ~until:70.0 sim;
  Alcotest.(check string) "exactly once" "20" !answer;
  Array.iter
    (fun r -> Alcotest.(check int) "log" 20 (Chain.Replica.last_applied r))
    replicas

let test_deterministic_runs () =
  let run () =
    let c = make_cluster ~seed:33L () in
    let proxy = make_proxy c in
    let log = ref [] in
    for i = 1 to 8 do
      Proxy.write proxy (Printf.sprintf "add:%d" i) (fun r ->
          log := (Sim.now c.sim, ok r) :: !log)
    done;
    Sim.run ~until:3.0 c.sim;
    List.rev !log
  in
  Alcotest.(check bool) "identical" true (run () = run ())

(* Capacity model: a flood gives the head a 1 s backlog at 1 ms per
   message, longer than the coordinator's 0.35 s failure timeout.  Pings
   skip the queue under [Chain.Replica.service], so the busy head keeps
   answering them and stays in the chain. *)
let test_saturated_replica_stays () =
  let c = make_cluster ~service:1e-3 () in
  Sim.run ~until:0.5 c.sim;
  (* a long timeout: retransmissions would only lengthen the backlog *)
  let proxy =
    Proxy.create ~net:c.net ~addr:2000 ~coordinator:coordinator_addr
      ~request_timeout:30.0 ()
  in
  let completed = ref 0 in
  for _ = 1 to 1000 do
    Proxy.write proxy "add:1" (fun r -> ignore (ok r); incr completed)
  done;
  Sim.run ~until:1.5 c.sim;
  Alcotest.(check bool) "head still backlogged" true (!completed < 1000);
  Sim.run ~until:5.0 c.sim;
  Alcotest.(check int) "every write acknowledged" 1000 !completed;
  let cfg = Chain.Coordinator.config c.coordinator in
  Alcotest.(check (list int)) "no replica removed" [ 0; 1; 2 ] cfg.Chain.chain

let suites =
  [ ( "replication",
      [
        Alcotest.test_case "basic write/read" `Quick test_basic_write_read;
        Alcotest.test_case "replicas converge" `Quick test_all_replicas_converge;
        Alcotest.test_case "read any replica" `Quick test_read_any_replica;
        Alcotest.test_case "middle failure" `Quick test_middle_failure_recovery;
        Alcotest.test_case "head failure" `Quick test_head_failure_recovery;
        Alcotest.test_case "tail failure" `Quick test_tail_failure_recovery;
        Alcotest.test_case "join fresh replica" `Quick test_join_fresh_replica;
        Alcotest.test_case "gapped transfer waits" `Quick test_gapped_sync_waits;
        Alcotest.test_case "exactly-once under loss" `Quick test_exactly_once_writes;
        Alcotest.test_case "deterministic" `Quick test_deterministic_runs;
        Alcotest.test_case "saturated replica stays" `Quick test_saturated_replica_stays;
      ] );
  ]
