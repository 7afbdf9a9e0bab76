(* The live stats plane: Get_stats/Stats_is codec round trips, the
   one-shot TCP metrics exposition server, and an end-to-end check that a
   replicated workload leaves nonzero counters in every instrumented
   layer. *)

open Kronos
open Kronos_simnet
open Kronos_service
module M = Kronos_metrics
module Chain = Kronos_replication.Chain
module Chain_codec = Kronos_replication.Chain_codec
module Transport = Kronos_transport.Transport
module Event_loop = Kronos_transport.Event_loop
module Metrics_server = Kronos_transport.Metrics_server
module Storage = Kronos_durability.Storage

(* {1 Codec} *)

let prop_stats_codec_roundtrip =
  let open QCheck2 in
  let gen_samples =
    Gen.(
      list_size (int_bound 25)
        (pair (string_size (int_bound 40)) (float_range (-1e12) 1e12)))
  in
  Test.make ~name:"stats codec roundtrip" ~count:300
    Gen.(pair (int_bound 5000) gen_samples)
    (fun (client, samples) ->
      Chain_codec.decode (Chain_codec.encode (Chain.Get_stats { client }))
      = Chain.Get_stats { client }
      && Chain_codec.decode (Chain_codec.encode (Chain.Stats_is { samples }))
         = Chain.Stats_is { samples })

(* {1 One-shot TCP exposition} *)

let test_metrics_server_one_shot () =
  let c = M.counter (M.scope "statstest") "served_total" in
  M.Counter.add c 42;
  let loop = Event_loop.create () in
  let server = Metrics_server.start ~loop ~port:0 () in
  let fetch () =
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.set_nonblock sock;
    (try
       Unix.connect sock
         (Unix.ADDR_INET (Unix.inet_addr_loopback, Metrics_server.port server))
     with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ());
    (* single-threaded: interleave serving (the event loop) with reading *)
    let buf = Buffer.create 4096 in
    let chunk = Bytes.create 4096 in
    let closed = ref false in
    let deadline = Unix.gettimeofday () +. 5.0 in
    while (not !closed) && Unix.gettimeofday () < deadline do
      Event_loop.run_for loop 0.005;
      match Unix.read sock chunk 0 (Bytes.length chunk) with
      | 0 -> closed := true
      | n -> Buffer.add_subbytes buf chunk 0 n
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ENOTCONN), _, _)
        -> ()
    done;
    Unix.close sock;
    Alcotest.(check bool) "server closed the connection" true !closed;
    Buffer.contents buf
  in
  let contains page needle =
    let n = String.length needle and len = String.length page in
    let rec at i = i + n <= len && (String.sub page i n = needle || at (i + 1)) in
    at 0
  in
  let page = fetch () in
  Alcotest.(check bool) "page has the counter" true
    (contains page "kronos_statstest_served_total 42");
  Alcotest.(check bool) "page has TYPE comments" true
    (contains page "# TYPE kronos_statstest_served_total counter");
  (* one-shot: a second connection gets a fresh page *)
  M.Counter.incr c;
  let page2 = fetch () in
  Alcotest.(check bool) "second scrape sees the new value" true
    (contains page2 "kronos_statstest_served_total 43");
  Metrics_server.stop server

(* {1 End to end: every layer's counters move under a real workload} *)

let test_workload_moves_every_layer () =
  let sim = Sim.create ~seed:11L () in
  let net = Kronos_transport.Sim_transport.of_net (Net.create sim) in
  let durability =
    Server.durability
      ~storage_of:(fun _ -> Storage.Memory.storage (Storage.Memory.create ()))
      ()
  in
  let _cluster =
    Server.deploy ~net ~coordinator:1000 ~replicas:[ 0; 1; 2 ] ~durability
      ~ping_interval:0.1 ~failure_timeout:0.5 ()
  in
  let client =
    Client.create ~net ~addr:2000 ~coordinator:1000 ~request_timeout:0.4 ()
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
  let ok = function
    | Ok x -> x
    | Error e -> Alcotest.failf "unexpected error: %a" Error.pp e
  in
  let watched =
    [
      "kronos_engine_events_created_total";
      "kronos_engine_assigns_total";
      "kronos_chain_entries_applied_total";
      "kronos_chain_acks_total";
      "kronos_proxy_requests_total";
      "kronos_server_ops_total{op=\"create_event\"}";
      "kronos_server_ops_total{op=\"assign_order\"}";
      "kronos_server_ops_total{op=\"query_order\"}";
      "kronos_client_op_seconds_count{op=\"create_event\"}";
      "kronos_wal_appends_total";
      "kronos_wal_fsyncs_total";
    ]
  in
  let value samples name = Option.value ~default:0. (List.assoc_opt name samples) in
  let baseline = M.samples () in
  (* the workload: mint events, order them, query the order *)
  let a = ok (await (Client.create_event client)) in
  let b = ok (await (Client.create_event client)) in
  let c = ok (await (Client.create_event client)) in
  ignore (ok (await (Client.assign_order client [ Order.must_before a b ])));
  (* (a, c) is concurrent, hence uncached: the query reaches the server *)
  ignore (ok (await (Client.query_order client [ (a, c) ])));
  (* fetch the registry through the admin RPC rather than locally: the
     reply proves the Stats plane works end to end *)
  let got = ref None in
  Transport.register net 3000 (fun ~src:_ msg ->
      match (msg : Chain.msg) with
      | Chain.Stats_is { samples } -> got := Some samples
      | _ -> ());
  Transport.send net ~src:3000 ~dst:0 (Chain.Get_stats { client = 3000 });
  let deadline = Sim.now sim +. 10.0 in
  while !got = None && Sim.now sim < deadline && Sim.pending sim > 0 do
    ignore (Sim.step sim)
  done;
  let samples =
    match !got with
    | Some s -> s
    | None -> Alcotest.fail "no Stats_is reply"
  in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "%s moved" name)
        true
        (value samples name > value baseline name))
    watched;
  (* which SHA-256 path this process runs is published, not just counted *)
  Alcotest.(check (option (float 0.))) "kronos_sha256_accelerated"
    (Some (if Kronos.Sha256.accelerated then 1. else 0.))
    (List.assoc_opt "kronos_sha256_accelerated" samples)

let suites =
  [ ( "stats",
      [
        QCheck_alcotest.to_alcotest prop_stats_codec_roundtrip;
        Alcotest.test_case "metrics server one-shot" `Quick
          test_metrics_server_one_shot;
        Alcotest.test_case "workload moves every layer" `Quick
          test_workload_moves_every_layer;
      ] );
  ]
