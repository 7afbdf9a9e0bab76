open Kronos
open Kronos_simnet
open Kronos_service

let relation = Alcotest.testable Order.pp_relation Order.relation_equal
let outcome = Alcotest.testable Order.pp_outcome Order.outcome_equal

let coordinator_addr = 1000

type env = {
  sim : Sim.t;
  cluster : Server.cluster;
  client : Client.t;
}

let make_env ?(replicas = 3) ?(seed = 5L) ?cache_capacity () =
  let sim = Sim.create ~seed () in
  let net = Kronos_transport.Sim_transport.of_net (Net.create sim) in
  let cluster =
    Server.deploy ~net ~coordinator:coordinator_addr
      ~replicas:(List.init replicas (fun i -> i))
      ~ping_interval:0.1 ~failure_timeout:0.35 ()
  in
  let client =
    Client.create ~net ~addr:2000 ~coordinator:coordinator_addr ?cache_capacity
      ~request_timeout:0.4 ()
  in
  { sim; cluster; client }

(* Run the simulation until the callback has produced a value. *)
let await env f =
  let result = ref None in
  f (fun x -> result := Some x);
  let deadline = Sim.now env.sim +. 30.0 in
  while !result = None && Sim.now env.sim < deadline && Sim.pending env.sim > 0 do
    ignore (Sim.step env.sim)
  done;
  match !result with
  | Some x -> x
  | None -> Alcotest.fail "service call did not complete"

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.failf "unexpected error: %a" Error.pp e

let test_end_to_end () =
  let env = make_env () in
  let a = ok (await env (Client.create_event env.client)) in
  let b = ok (await env (Client.create_event env.client)) in
  let c = ok (await env (Client.create_event env.client)) in
  Alcotest.(check bool) "distinct events" true (not (Event_id.equal a b));
  let outs =
    ok (await env
          (Client.assign_order env.client
             [ Order.must_before a b; Order.must_before b c ]))
  in
  Alcotest.(check (list outcome)) "applied" [ Order.Applied; Order.Applied ] outs;
  let rels = ok (await env (Client.query_order env.client [ (a, c); (c, b) ])) in
  Alcotest.(check (list relation)) "order seen" [ Order.Before; Order.After ] rels

let test_replicas_identical () =
  let env = make_env () in
  let a = ok (await env (Client.create_event env.client)) in
  let b = ok (await env (Client.create_event env.client)) in
  ignore
    (ok (await env
           (Client.assign_order env.client
              [ Order.must_before a b ])));
  Sim.run ~until:(Sim.now env.sim +. 2.0) env.sim;
  (* every replica's engine holds the same graph *)
  List.iter
    (fun (_, engine) ->
      Alcotest.(check int) "events" 2 (Engine.live_events !engine);
      Alcotest.(check int) "edges" 1 (Engine.edges !engine))
    env.cluster.Server.replicas

let test_cache_short_circuits () =
  let env = make_env () in
  let a = ok (await env (Client.create_event env.client)) in
  let b = ok (await env (Client.create_event env.client)) in
  ignore
    (ok (await env
           (Client.assign_order env.client
              [ Order.must_before a b ])));
  (* the assign primed the cache: this query never reaches the service *)
  let before = Client.server_queries env.client in
  let rels = ok (await env (Client.query_order env.client [ (a, b); (b, a) ])) in
  Alcotest.(check (list relation)) "cached" [ Order.Before; Order.After ] rels;
  Alcotest.(check int) "no server round trip" before
    (Client.server_queries env.client)

let test_cache_disabled () =
  let env = make_env ~cache_capacity:0 () in
  let a = ok (await env (Client.create_event env.client)) in
  let b = ok (await env (Client.create_event env.client)) in
  ignore
    (ok (await env
           (Client.assign_order env.client
              [ Order.must_before a b ])));
  let before = Client.server_queries env.client in
  ignore (ok (await env (Client.query_order env.client [ (a, b) ])));
  Alcotest.(check int) "server consulted" (before + 1)
    (Client.server_queries env.client);
  Alcotest.(check bool) "no cache" true (Client.cache env.client = None)

let test_stale_reads () =
  let env = make_env () in
  let a = ok (await env (Client.create_event env.client)) in
  let b = ok (await env (Client.create_event env.client)) in
  let c = ok (await env (Client.create_event env.client)) in
  ignore
    (ok (await env
           (Client.assign_order env.client
              [ Order.must_before a b ])));
  Sim.run ~until:(Sim.now env.sim +. 1.0) env.sim;
  (* ordered pair via stale replica: no revalidation *)
  let rels = ok (await env (Client.query_order env.client ~stale:true [ (a, b) ])) in
  Alcotest.(check (list relation)) "stale ordered" [ Order.Before ] rels;
  Alcotest.(check int) "no revalidation" 0 (Client.stale_revalidations env.client);
  (* concurrent pair via stale replica: must be revalidated at the tail *)
  let rels = ok (await env (Client.query_order env.client ~stale:true [ (a, c) ])) in
  Alcotest.(check (list relation)) "still concurrent" [ Order.Concurrent ] rels;
  Alcotest.(check int) "revalidated" 1 (Client.stale_revalidations env.client)

let test_error_propagation () =
  let env = make_env () in
  let a = ok (await env (Client.create_event env.client)) in
  let b = ok (await env (Client.create_event env.client)) in
  let collected = ok (await env (Client.release_ref env.client a)) in
  Alcotest.(check int) "collected" 1 collected;
  (match await env (Client.query_order env.client [ (a, b) ]) with
   | Error (Error.Rejected (Order.Unknown_event e)) ->
     Alcotest.(check bool) "names stale event" true (Event_id.equal e a)
   | Error e -> Alcotest.failf "wrong error: %a" Error.pp e
   | Ok _ -> Alcotest.fail "expected unknown event");
  match await env (Client.acquire_ref env.client a) with
  | Error (Error.Rejected (Order.Unknown_event _)) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Error.pp e
  | Ok () -> Alcotest.fail "expected unknown event"

let test_survives_replica_failure () =
  let env = make_env () in
  let a = ok (await env (Client.create_event env.client)) in
  let b = ok (await env (Client.create_event env.client)) in
  Server.crash env.cluster 1;
  Sim.run ~until:(Sim.now env.sim +. 2.0) env.sim;
  let outs =
    ok (await env
          (Client.assign_order env.client
             [ Order.must_before a b ]))
  in
  Alcotest.(check (list outcome)) "applied after crash" [ Order.Applied ] outs;
  let rels = ok (await env (Client.query_order env.client [ (a, b) ])) in
  Alcotest.(check (list relation)) "readable after crash" [ Order.Before ] rels

let test_join_catches_up () =
  let env = make_env ~replicas:2 () in
  let a = ok (await env (Client.create_event env.client)) in
  let b = ok (await env (Client.create_event env.client)) in
  ignore
    (ok (await env
           (Client.assign_order env.client
              [ Order.must_before a b ])));
  Server.join env.cluster 7 ();
  Sim.run ~until:(Sim.now env.sim +. 2.0) env.sim;
  (match Server.engine_of env.cluster 7 with
   | Some engine ->
     Alcotest.(check int) "fresh engine synced" 2 (Engine.live_events engine);
     Alcotest.(check int) "fresh engine edges" 1 (Engine.edges engine)
   | None -> Alcotest.fail "fresh replica missing");
  (* reads from the fresh tail work *)
  let rels = ok (await env (Client.query_order env.client [ (a, b) ])) in
  Alcotest.(check (list relation)) "reads via new tail" [ Order.Before ] rels

let test_malformed_command_rejected () =
  let engine = Engine.create () in
  let resp = Server.apply engine "\xff\xff" in
  match Kronos_wire.Message.decode_response resp with
  | Kronos_wire.Message.Rejected (Order.Unknown_event _) -> ()
  | _ -> Alcotest.fail "expected rejection of malformed command"

(* A reply the client cannot use fails that call with [Error], never the
   process: the fake replica answers like [Server.apply] except for the
   commands [mangle] picks, whose replies are an undecodable byte, carry
   one relation or outcome fewer than the request had pairs, or answer a
   create with the wrong constructor. *)
let test_malformed_replies_fail_the_call () =
  let module Message = Kronos_wire.Message in
  let module Chain = Kronos_replication.Chain in
  let sim = Sim.create ~seed:11L () in
  let net = Kronos_transport.Sim_transport.of_net (Net.create sim) in
  let engine = Engine.create () in
  let mangle = ref `None in
  let fake_apply cmd =
    let resp = Server.apply engine cmd in
    match (!mangle, Message.decode_response resp) with
    | `Garbage, _ -> "\xff"
    | `Short, Message.Orders { epoch; rels = _ :: rels } ->
      Message.encode_response (Message.Orders { epoch; rels })
    | `Short, Message.Outcomes { epoch; outs = _ :: outs } ->
      Message.encode_response (Message.Outcomes { epoch; outs })
    | `Wrong, Message.Event_created _ -> Message.encode_response Message.Ref_acquired
    | _ -> resp
  in
  let (_ : Chain.Replica.t) =
    Chain.Replica.create ~net ~addr:1 ~apply:fake_apply
      ~persist:(Toy_replica.persist ~save:(fun () -> "") ~load:ignore)
      ()
  in
  let (_ : Chain.Coordinator.t) =
    Chain.Coordinator.create ~net ~addr:coordinator_addr ~chain:[ 1 ]
      ~ping_interval:0.1 ~failure_timeout:1.0 ()
  in
  let client =
    Client.create ~net ~addr:2000 ~coordinator:coordinator_addr
      ~cache_capacity:0 ~request_timeout:0.4 ()
  in
  let await f =
    let result = ref None in
    f (fun x -> result := Some x);
    let deadline = Sim.now sim +. 30.0 in
    while !result = None && Sim.now sim < deadline && Sim.pending sim > 0 do
      ignore (Sim.step sim)
    done;
    match !result with
    | Some x -> x
    | None -> Alcotest.fail "service call did not complete"
  in
  let failed what = function
    | Error (Error.Rejected (Order.Unknown_event e))
      when Event_id.equal e Event_id.none -> ()
    | Error e -> Alcotest.failf "%s: unexpected error %a" what Error.pp e
    | Ok _ -> Alcotest.failf "%s: expected the call to fail" what
  in
  let a = ok (await (Client.create_event client)) in
  let b = ok (await (Client.create_event client)) in
  let c = ok (await (Client.create_event client)) in
  mangle := `Garbage;
  failed "undecodable query reply"
    (await (Client.query_order client [ (a, b) ]));
  failed "undecodable create reply" (await (Client.create_event client));
  mangle := `Short;
  failed "short query reply"
    (await (Client.query_order client [ (a, b); (b, c) ]));
  failed "short epoch query reply"
    (await (Client.query_order_e client [ (a, b); (b, c) ]));
  failed "short assign ack"
    (await (Client.assign_order client
              [ Order.must_before a b; Order.must_before b c ]));
  mangle := `Wrong;
  failed "wrong create reply" (await (Client.create_event client));
  mangle := `None;
  let rels = ok (await (Client.query_order client [ (a, c) ])) in
  Alcotest.(check (list relation)) "service usable afterwards"
    [ Order.Before ] rels

let suites =
  [ ( "service",
      [
        Alcotest.test_case "end to end" `Quick test_end_to_end;
        Alcotest.test_case "replicas identical" `Quick test_replicas_identical;
        Alcotest.test_case "cache short-circuits" `Quick test_cache_short_circuits;
        Alcotest.test_case "cache disabled" `Quick test_cache_disabled;
        Alcotest.test_case "stale reads" `Quick test_stale_reads;
        Alcotest.test_case "error propagation" `Quick test_error_propagation;
        Alcotest.test_case "survives replica failure" `Quick test_survives_replica_failure;
        Alcotest.test_case "join catches up" `Quick test_join_catches_up;
        Alcotest.test_case "malformed command" `Quick test_malformed_command_rejected;
        Alcotest.test_case "malformed replies fail the call" `Quick
          test_malformed_replies_fail_the_call;
      ] );
  ]
