(* The multicore query plane end to end (DESIGN.md §14): a real-TCP
   3-replica chain where every node offloads its reads to a 4-domain
   {!Kronos_service.Query_pool}, exercised through the typed client —
   including a mid-run kill and restart of one node (pool and all), the
   [`At_least] read-your-writes demand, and per-connection epoch
   monotonicity.  Plus the event-loop self-pipe in isolation: a notify
   from another domain must cut a long select short. *)

open Kronos
module Chain = Kronos_replication.Chain
module Server = Kronos_service.Server
module Client = Kronos_service.Client
module Query_pool = Kronos_service.Query_pool
module Storage = Kronos_durability.Storage
module Transport = Kronos_transport.Transport
module Event_loop = Kronos_transport.Event_loop
module Tcp = Kronos_transport.Tcp_transport

(* {1 Event-loop wakeup} *)

let test_notify_interrupts_select () =
  let loop = Event_loop.create () in
  let fired = ref 0 in
  Event_loop.on_notify loop (fun () -> incr fired);
  (* Pending notify: the loop must not block at all. *)
  Event_loop.notify loop;
  let t0 = Unix.gettimeofday () in
  Event_loop.run_once loop ~max_wait:5.0 ();
  Alcotest.(check int) "pending notify delivered" 1 !fired;
  Alcotest.(check bool) "no blocking on pending notify" true
    (Unix.gettimeofday () -. t0 < 1.0);
  (* Cross-domain notify must interrupt an idle 5 s select promptly. *)
  let d =
    Domain.spawn (fun () ->
        Unix.sleepf 0.1;
        Event_loop.notify loop)
  in
  let t0 = Unix.gettimeofday () in
  Event_loop.run_once loop ~max_wait:5.0 ();
  let elapsed = Unix.gettimeofday () -. t0 in
  Domain.join d;
  Alcotest.(check int) "cross-domain notify delivered" 2 !fired;
  Alcotest.(check bool)
    (Printf.sprintf "woke in %.3fs, not the full 5s" elapsed)
    true (elapsed < 2.0);
  (* Coalescing: many notifies before one iteration, one callback run. *)
  Event_loop.notify loop;
  Event_loop.notify loop;
  Event_loop.notify loop;
  Event_loop.run_once loop ~max_wait:0.2 ();
  Alcotest.(check int) "burst coalesced" 3 !fired

(* Regression stress for the drain/notify latch: a notify racing the
   loop's pipe drain must never wedge the latch (flag set, pipe already
   drained) — that state made every later notify skip its wakeup byte, so
   queued completions sat undelivered until stop.  Hammer notifies from
   another domain while the loop drains as fast as it can, then require
   one final notify to still cut a long select short. *)
let test_notify_drain_race () =
  let loop = Event_loop.create () in
  let delivered = ref 0 in
  Event_loop.on_notify loop (fun () -> incr delivered);
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Event_loop.notify loop;
          Domain.cpu_relax ()
        done)
  in
  for _ = 1 to 2000 do
    Event_loop.run_once loop ~max_wait:0.0005 ()
  done;
  Atomic.set stop true;
  Domain.join d;
  (* settle: deliver whatever the last pre-stop notify produced *)
  Event_loop.run_once loop ~max_wait:0.05 ();
  let before = !delivered in
  Event_loop.notify loop;
  let t0 = Unix.gettimeofday () in
  Event_loop.run_once loop ~max_wait:5.0 ();
  Alcotest.(check bool) "post-race notify still delivered" true
    (!delivered > before);
  Alcotest.(check bool) "woke promptly, latch not wedged" true
    (Unix.gettimeofday () -. t0 < 2.0)

(* {1 TCP loopback with 4 reader domains per node} *)

let tcp_config =
  { Tcp.default_config with backoff_min = 0.02; backoff_max = 0.2 }

let chain_tcp loop =
  Tcp.create ~loop ~encode:Kronos_replication.Chain_codec.encode
    ~decode:Kronos_replication.Chain_codec.decode ~config:tcp_config ()

let coordinator_addr = 1000

let test_kill_restart_with_pools () =
  let loop = Event_loop.create () in
  let wait ~what ?(secs = 30.) pred =
    if
      not (Event_loop.run_until loop ~deadline:(Event_loop.now loop +. secs) pred)
    then Alcotest.fail ("timed out waiting for " ^ what)
  in

  let dirs = Hashtbl.create 4 in
  let dir_of a =
    match Hashtbl.find_opt dirs a with
    | Some d -> d
    | None ->
        let d = Storage.Memory.create () in
        Hashtbl.replace dirs a d;
        d
  in
  let durability =
    Server.durability ~wal_bytes_per_snapshot:512
      ~storage_of:(fun a -> Storage.Memory.storage (dir_of a))
      ()
  in

  let t1 = chain_tcp loop and t2 = chain_tcp loop and t3 = chain_tcp loop in
  let p1 = Tcp.listen t1 ~port:0 () in
  let p2 = Tcp.listen t2 ~port:0 () in
  let p3 = Tcp.listen t3 ~port:0 () in
  let endpoints = [ (coordinator_addr, p1); (1, p1); (2, p2); (3, p3) ] in
  let add_mesh t =
    List.iter (fun (a, p) -> Tcp.add_peer t a ~host:"127.0.0.1" ~port:p) endpoints
  in
  List.iter add_mesh [ t1; t2; t3 ];

  (* One 4-domain query pool per node — exactly what
     [kronosd --query-domains 4] wires up. *)
  let pool1 = Query_pool.create ~loop ~domains:4 () in
  let pool2 = Query_pool.create ~loop ~domains:4 () in
  let pool3 = Query_pool.create ~loop ~domains:4 () in
  Alcotest.(check int) "pool size" 4 (Query_pool.domains pool1);

  let r1, _e1 =
    Server.start_node ~net:(Tcp.transport t1) ~addr:1 ~durability
      ~query_pool:pool1 ()
  in
  let coord =
    Chain.Coordinator.create ~net:(Tcp.transport t1) ~addr:coordinator_addr
      ~chain:[ 1 ] ~ping_interval:0.1 ~failure_timeout:0.5 ()
  in
  let chain_length () =
    List.length (Chain.Coordinator.config coord).Chain.chain
  in
  let join net replica =
    let timer = ref None in
    let joined () =
      List.mem (Chain.Replica.addr replica)
        (Chain.Replica.config replica).Chain.chain
    in
    Chain.Replica.announce_join replica ~coordinator:coordinator_addr;
    timer :=
      Some
        (Transport.every net ~period:0.1 (fun () ->
             if joined () then Option.iter Transport.cancel !timer
             else
               Chain.Replica.announce_join replica
                 ~coordinator:coordinator_addr))
  in
  let r2, _ =
    Server.start_node ~net:(Tcp.transport t2) ~addr:2 ~durability
      ~query_pool:pool2 ()
  in
  join (Tcp.transport t2) r2;
  wait ~what:"replica 2 to join" (fun () -> chain_length () = 2);
  let r3, _ =
    Server.start_node ~net:(Tcp.transport t3) ~addr:3 ~durability
      ~query_pool:pool3 ()
  in
  join (Tcp.transport t3) r3;
  wait ~what:"replica 3 to join" (fun () -> chain_length () = 3);

  let ct = chain_tcp loop in
  add_mesh ct;
  Tcp.connect_peers ct;
  (* Cache capacity 0: every query really crosses the wire and lands on a
     reader domain. *)
  let client =
    Client.create ~net:(Tcp.transport ct) ~addr:9001
      ~coordinator:coordinator_addr ~cache_capacity:0 ~request_timeout:0.25 ()
  in

  (* Phase 1: build a chain of acked orders, querying as we go so the
     pools serve traffic while the writer is active.  Epochs reported on
     this connection must never go backwards. *)
  let total = 30 in
  let acked = ref [] in
  let epochs = ref [] in
  let finished = ref false in
  let rec step prev n =
    if n = 0 then finished := true
    else
      Client.create_event client (function
        | Error _ -> Alcotest.fail "create_event failed"
        | Ok e -> (
            match prev with
            | None -> step (Some e) (n - 1)
            | Some p ->
                Client.assign_order client
                  [ Order.must_before p e ]
                  (function
                    | Error _ -> Alcotest.fail "acyclic assign rejected"
                    | Ok _ ->
                        acked := (p, e) :: !acked;
                        Client.query_order_e client
                          [ (p, e) ]
                          (function
                            | Error _ -> Alcotest.fail "query failed"
                            | Ok (rels, epoch) ->
                                Alcotest.(check int) "one answer" 1
                                  (List.length rels);
                                epochs := epoch :: !epochs;
                                step (Some e) (n - 1)))))
  in
  let publishes_timed () =
    Option.value ~default:0.
      (List.assoc_opt "kronos_query_pool_publish_seconds_count"
         (Kronos_metrics.samples ()))
  in
  let timed0 = publishes_timed () in
  step None total;
  wait ~what:"workload phase 1" ~secs:60. (fun () -> !finished);
  Alcotest.(check bool) "view publishes are timed" true
    (publishes_timed () > timed0);
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a >= b && non_decreasing rest
    | _ -> true
  in
  (* [epochs] is newest-first. *)
  Alcotest.(check bool) "per-connection epochs monotonic" true
    (non_decreasing !epochs);
  Alcotest.(check bool) "epochs are stamped" true
    (List.for_all (fun e -> e > 0L) !epochs);
  Alcotest.(check bool) "client tracked the high-water epoch" true
    (Client.last_epoch client >= List.hd !epochs);

  (* Read-your-writes: demand at least the epoch of the last ack, from a
     stale (random) replica.  A behind replica forces a tail retry; the
     answer must reflect the write either way. *)
  let e_demand = Client.last_epoch client in
  let ryw = ref None in
  Client.query_order_e client ~stale:true
    ~consistency:(`At_least e_demand)
    [ List.hd !acked ]
    (fun r -> ryw := Some r);
  wait ~what:"read-your-writes query" (fun () -> !ryw <> None);
  (match Option.get !ryw with
  | Error _ -> Alcotest.fail "at-least query failed"
  | Ok (rels, epoch) ->
      Alcotest.(check bool) "reply epoch meets the demand" true
        (epoch >= e_demand);
      List.iter
        (fun rel ->
          Alcotest.(check bool) "write visible" true
            (Order.relation_equal rel Order.Before))
        rels);

  (* Phase 2: kill replica 2 — runtime and pool — mid-deployment, keep
     writing through the reconfiguration. *)
  Tcp.shutdown t2;
  Query_pool.stop pool2;
  let more = ref [] in
  let finished2 = ref false in
  let rec step2 prev n =
    if n = 0 then finished2 := true
    else
      Client.create_event client (function
        | Error _ -> Alcotest.fail "create_event failed after kill"
        | Ok e -> (
            match prev with
            | None -> step2 (Some e) (n - 1)
            | Some p ->
                Client.assign_order client
                  [ Order.must_before p e ]
                  (function
                    | Error _ -> Alcotest.fail "assign rejected after kill"
                    | Ok _ ->
                        more := (p, e) :: !more;
                        step2 (Some e) (n - 1))))
  in
  step2 None 10;
  wait ~what:"workload phase 2 over the kill" ~secs:60. (fun () ->
      !finished2 && chain_length () = 2);

  (* A 512-byte WAL window is about a dozen commands: node 2 snapshotted
     before the kill, so its restart restores a snapshot and replays only
     the WAL past it. *)
  Alcotest.(check bool) "node 2 snapshotted before the kill" true
    (Option.is_some
       (Kronos_durability.Snapshot.load_chain
          (Storage.Memory.storage (dir_of 2))));

  (* Restart node 2 on the same port with a fresh pool; it recovers from
     its storage and rejoins at the tail. *)
  let t2b = chain_tcp loop in
  let (_ : int) = Tcp.listen t2b ~port:p2 () in
  add_mesh t2b;
  let pool2b = Query_pool.create ~loop ~domains:4 () in
  let r2b, _ =
    Server.start_node ~net:(Tcp.transport t2b) ~addr:2 ~durability
      ~query_pool:pool2b ()
  in
  Alcotest.(check bool) "recovered from local storage" true
    (Chain.Replica.last_applied r2b > 0);
  join (Tcp.transport t2b) r2b;
  wait ~what:"replica 2 to rejoin" (fun () -> chain_length () = 3);
  wait ~what:"replicas to converge" (fun () ->
      Chain.Replica.last_applied r2b = Chain.Replica.last_applied r1);

  (* Every acked order — before and after the kill — is still queryable;
     the tail is now the restarted node, answering from its reader
     domains over a view recovered through snapshot + WAL. *)
  let pairs = List.rev_append !acked (List.rev !more) in
  let answer = ref None in
  Client.query_order_e client pairs (fun r -> answer := Some r);
  wait ~what:"query through the restarted tail" (fun () -> !answer <> None);
  (match Option.get !answer with
  | Error _ -> Alcotest.fail "final query failed"
  | Ok (rels, epoch) ->
      Alcotest.(check int) "every acked pair answered" (List.length pairs)
        (List.length rels);
      Alcotest.(check bool) "restarted tail stamps a live epoch" true
        (epoch > 0L);
      List.iteri
        (fun i rel ->
          Alcotest.(check bool)
            (Printf.sprintf "acked order %d survives the kill" i)
            true
            (Order.relation_equal rel Order.Before))
        rels);

  List.iter Query_pool.stop [ pool1; pool2b; pool3 ];
  List.iter Tcp.shutdown [ ct; t1; t2b; t3 ]

let suites =
  [
    ( "query_plane",
      [
        Alcotest.test_case "notify interrupts select" `Quick
          test_notify_interrupts_select;
        Alcotest.test_case "notify/drain race never wedges" `Quick
          test_notify_drain_race;
        Alcotest.test_case "4-domain pools survive kill/restart" `Slow
          test_kill_restart_with_pools;
      ] );
  ]
