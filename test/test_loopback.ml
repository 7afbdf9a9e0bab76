(* Loopback integration test: a durable 3-replica chain over real TCP on
   127.0.0.1 ephemeral ports, all runtimes sharing one event loop in this
   process.  A closed-loop workload creates and orders events while the
   middle replica's entire TCP runtime is shut down mid-run; the chain
   reconfigures around it, the replica restarts on the same port from its
   own (in-memory) WAL + snapshots, rejoins at the tail, and every
   acknowledged order must still be queryable — no acked write is lost. *)

open Kronos
module Chain = Kronos_replication.Chain
module Server = Kronos_service.Server
module Client = Kronos_service.Client
module Storage = Kronos_durability.Storage
module Transport = Kronos_transport.Transport
module Event_loop = Kronos_transport.Event_loop
module Tcp = Kronos_transport.Tcp_transport

(* Fast reconnects keep the post-restart redial latency well under the
   coordinator's failure timeout. *)
let tcp_config =
  { Tcp.default_config with backoff_min = 0.02; backoff_max = 0.2 }

let chain_tcp loop =
  Tcp.create ~loop ~encode:Kronos_replication.Chain_codec.encode
    ~decode:Kronos_replication.Chain_codec.decode ~config:tcp_config ()

let coordinator_addr = 1000

let test_kill_and_rejoin () =
  let loop = Event_loop.create () in
  let wait ~what ?(secs = 30.) pred =
    if not (Event_loop.run_until loop ~deadline:(Event_loop.now loop +. secs) pred)
    then Alcotest.fail ("timed out waiting for " ^ what)
  in

  (* Per-replica in-memory storage, stable across the restart. *)
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

  (* One TCP runtime per daemon-equivalent, each with its own listener. *)
  let t1 = chain_tcp loop and t2 = chain_tcp loop and t3 = chain_tcp loop in
  let p1 = Tcp.listen t1 ~port:0 () in
  let p2 = Tcp.listen t2 ~port:0 () in
  let p3 = Tcp.listen t3 ~port:0 () in
  (* Full static mesh, as kronosd requires: the coordinator shares replica
     1's endpoint. *)
  let endpoints = [ (coordinator_addr, p1); (1, p1); (2, p2); (3, p3) ] in
  let add_mesh t =
    List.iter (fun (a, p) -> Tcp.add_peer t a ~host:"127.0.0.1" ~port:p) endpoints
  in
  List.iter add_mesh [ t1; t2; t3 ];

  let r1, e1 = Server.start_node ~net:(Tcp.transport t1) ~addr:1 ~durability () in
  let coord =
    Chain.Coordinator.create ~net:(Tcp.transport t1) ~addr:coordinator_addr
      ~chain:[ 1 ] ~ping_interval:0.1 ~failure_timeout:0.5 ()
  in
  let chain_length () = List.length (Chain.Coordinator.config coord).Chain.chain in

  (* Replicas join over the wire, retrying exactly as kronosd does. *)
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
               Chain.Replica.announce_join replica ~coordinator:coordinator_addr))
  in
  let _r2, _e2 = Server.start_node ~net:(Tcp.transport t2) ~addr:2 ~durability () in
  join (Tcp.transport t2) _r2;
  wait ~what:"replica 2 to join" (fun () -> chain_length () = 2);
  let r3, e3 = Server.start_node ~net:(Tcp.transport t3) ~addr:3 ~durability () in
  join (Tcp.transport t3) r3;
  wait ~what:"replica 3 to join" (fun () -> chain_length () = 3);

  (* The client runtime has no listener: replies reach it through learned
     return routes on the connections it dials. *)
  let ct = chain_tcp loop in
  add_mesh ct;
  Tcp.connect_peers ct;
  let client =
    Client.create ~net:(Tcp.transport ct) ~addr:9001
      ~coordinator:coordinator_addr ~request_timeout:0.25 ()
  in

  (* Closed-loop workload: create events, chain each after the previous
     one.  No per-call timeout, so the proxy retries through the failure
     and an acknowledgement is a promise.  After 12 acked orders, kill the
     middle replica's whole runtime (listener + connections). *)
  let total = 40 in
  let acked = ref [] in
  let finished = ref false in
  let killed = ref false in
  let rec step prev n =
    if n = 0 then finished := true
    else
      Client.create_event client (function
        | Error _ -> Alcotest.fail "create_event failed without a deadline"
        | Ok e -> (
          match prev with
          | None -> step (Some e) (n - 1)
          | Some p ->
            Client.assign_order client
              [ Order.must_before p e ]
              (function
                | Error _ -> Alcotest.fail "acyclic assign_order rejected"
                | Ok _ ->
                  acked := (p, e) :: !acked;
                  if (not !killed) && List.length !acked >= 12 then begin
                    killed := true;
                    Tcp.shutdown t2
                  end;
                  step (Some e) (n - 1))))
  in
  step None total;
  wait ~what:"workload to finish over the kill" ~secs:60. (fun () -> !finished);
  Alcotest.(check bool) "replica 2 was killed mid-run" true !killed;
  Alcotest.(check int) "every order acked" (total - 1) (List.length !acked);
  Alcotest.(check int) "chain reconfigured without replica 2" 2 (chain_length ());

  (* A 512-byte WAL window is about a dozen commands: replica 2 snapshotted
     before the kill, so its restart restores a snapshot and replays only
     the WAL past it. *)
  Alcotest.(check bool) "replica 2 snapshotted before the kill" true
    (Option.is_some
       (Kronos_durability.Snapshot.load_chain
          (Storage.Memory.storage (dir_of 2))));

  (* Restart: same port (the listener socket is SO_REUSEADDR), same
     storage.  The replica recovers locally, then rejoins at the tail with
     only the missing suffix shipped. *)
  let t2b = chain_tcp loop in
  let (_ : int) = Tcp.listen t2b ~port:p2 () in
  add_mesh t2b;
  let r2b, e2b = Server.start_node ~net:(Tcp.transport t2b) ~addr:2 ~durability () in
  Alcotest.(check bool) "recovered state from local storage" true
    (Chain.Replica.last_applied r2b > 0);
  join (Tcp.transport t2b) r2b;
  wait ~what:"replica 2 to rejoin" (fun () -> chain_length () = 3);
  wait ~what:"replicas to converge" (fun () ->
      Chain.Replica.last_applied r2b = Chain.Replica.last_applied r1
      && Chain.Replica.last_applied r3 = Chain.Replica.last_applied r1);
  Alcotest.(check bool) "restarted engine identical to head" true
    (Engine.stats !e1 = Engine.stats !e2b);
  Alcotest.(check bool) "surviving engine identical to head" true
    (Engine.stats !e1 = Engine.stats !e3);

  (* No lost acknowledged orders: every acked pair is still Before — the
     read goes to the tail, which is now the restarted replica. *)
  let pairs = List.rev !acked in
  let answer = ref None in
  Client.query_order client pairs (fun r -> answer := Some r);
  wait ~what:"query through the restarted tail" (fun () -> !answer <> None);
  (match Option.get !answer with
   | Error _ -> Alcotest.fail "query_order failed"
   | Ok rels ->
     Alcotest.(check int) "every acked pair answered" (List.length pairs)
       (List.length rels);
     List.iteri
       (fun i rel ->
         Alcotest.(check bool)
           (Printf.sprintf "acked order %d survives the kill" i)
           true
           (Order.relation_equal rel Order.Before))
       rels);

  List.iter Tcp.shutdown [ ct; t1; t2b; t3 ]

let suites =
  [ ( "loopback",
      [ Alcotest.test_case "3-replica TCP chain survives replica kill" `Slow
          test_kill_and_rejoin ] );
  ]
