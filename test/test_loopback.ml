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

let chain_length coord = List.length (Chain.Coordinator.config coord).Chain.chain

let wait loop ~what ?(secs = 30.) pred =
  if not (Event_loop.run_until loop ~deadline:(Event_loop.now loop +. secs) pred)
  then Alcotest.fail ("timed out waiting for " ^ what)

(* Replicas join over the wire, retrying exactly as kronosd does. *)
let join net replica =
  let timer = ref None in
  let joined () =
    List.mem (Chain.Replica.addr replica) (Chain.Replica.config replica).Chain.chain
  in
  Chain.Replica.announce_join replica ~coordinator:coordinator_addr;
  timer :=
    Some
      (Transport.every net ~period:0.1 (fun () ->
           if joined () then Option.iter Transport.cancel !timer
           else Chain.Replica.announce_join replica ~coordinator:coordinator_addr))

(* Per-replica in-memory storage, stable across restarts. *)
let memory_dirs () =
  let dirs = Hashtbl.create 4 in
  fun a ->
    match Hashtbl.find_opt dirs a with
    | Some d -> d
    | None ->
      let d = Storage.Memory.create () in
      Hashtbl.replace dirs a d;
      d

type chain = {
  runtimes : Chain.msg Tcp.t array;  (* replica [i + 1]'s runtime *)
  ports : int array;
  replicas : (Chain.Replica.t * Engine.t ref) array;
  coord : Chain.Coordinator.t;
  add_mesh : Chain.msg Tcp.t -> unit;
  ct : Chain.msg Tcp.t;
  client : Client.t;
}

(* A durable 3-replica chain, one TCP runtime with its own listener per
   daemon-equivalent, and a client runtime without a listener: replies
   reach it through learned return routes on the connections it dials. *)
let start_chain loop ~durability =
  let runtimes = Array.init 3 (fun _ -> chain_tcp loop) in
  let ports = Array.map (fun t -> Tcp.listen t ~port:0 ()) runtimes in
  (* Full static mesh, as kronosd requires: the coordinator shares replica
     1's endpoint. *)
  let endpoints =
    (coordinator_addr, ports.(0)) :: List.init 3 (fun i -> (i + 1, ports.(i)))
  in
  let add_mesh t =
    List.iter (fun (a, p) -> Tcp.add_peer t a ~host:"127.0.0.1" ~port:p) endpoints
  in
  Array.iter add_mesh runtimes;
  let start i =
    Server.start_node ~net:(Tcp.transport runtimes.(i)) ~addr:(i + 1) ~durability ()
  in
  let head = start 0 in
  let coord =
    Chain.Coordinator.create ~net:(Tcp.transport runtimes.(0)) ~addr:coordinator_addr
      ~chain:[ 1 ] ~ping_interval:0.1 ~failure_timeout:0.5 ()
  in
  let others =
    List.map
      (fun i ->
        let ((replica, _) as r) = start i in
        join (Tcp.transport runtimes.(i)) replica;
        wait loop ~what:(Printf.sprintf "replica %d to join" (i + 1)) (fun () ->
            chain_length coord = i + 1);
        r)
      [ 1; 2 ]
  in
  let ct = chain_tcp loop in
  add_mesh ct;
  Tcp.connect_peers ct;
  let client =
    Client.create ~net:(Tcp.transport ct) ~addr:9001
      ~coordinator:coordinator_addr ~request_timeout:0.25 ()
  in
  { runtimes; ports; replicas = Array.of_list (head :: others); coord; add_mesh;
    ct; client }

let test_kill_and_rejoin () =
  let loop = Event_loop.create () in
  let wait = wait loop in
  let dir_of = memory_dirs () in
  let durability =
    Server.durability ~wal_bytes_per_snapshot:512
      ~storage_of:(fun a -> Storage.Memory.storage (dir_of a))
      ()
  in
  let c = start_chain loop ~durability in
  let client = c.client and t2 = c.runtimes.(1) in
  let r1, e1 = c.replicas.(0) and r3, e3 = c.replicas.(2) in
  let chain_length () = chain_length c.coord in

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
  let (_ : int) = Tcp.listen t2b ~port:c.ports.(1) () in
  c.add_mesh t2b;
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

  List.iter Tcp.shutdown [ c.ct; c.runtimes.(0); t2b; c.runtimes.(2) ]

let fsyncs () =
  match List.assoc_opt "kronos_wal_fsyncs_total" (Kronos_metrics.samples ()) with
  | Some v -> int_of_float v
  | None -> Alcotest.fail "kronos_wal_fsyncs_total missing"

(* Group commit over TCP: with 8 writes always in flight, each replica
   commits its WAL once per loop pass for every write that pass applied,
   so the chain pays far fewer than the 3 fsyncs per write (one per
   replica) of a commit per delivered message.  Replies leave only after
   the commit that covers them, so a crash of all three machines loses
   no acknowledged order. *)
let test_group_commit_survives_crash () =
  let loop = Event_loop.create () in
  let dir_of = memory_dirs () in
  let durability =
    Server.durability ~wal_bytes_per_snapshot:4096
      ~storage_of:(fun a -> Storage.Memory.storage (dir_of a))
      ()
  in
  let c = start_chain loop ~durability in
  let sessions = 8 and rounds = 8 in
  let writes = ref 0 and acked = ref [] and running = ref sessions in
  let ok what = function
    | Ok v ->
      incr writes;
      v
    | Error _ -> Alcotest.fail (what ^ " failed without a deadline")
  in
  (* Each session creates two events and orders them, [rounds] times:
     one write in flight per session. *)
  let rec session n =
    if n = 0 then decr running
    else
      Client.create_event c.client (fun r ->
          let a = ok "create_event" r in
          Client.create_event c.client (fun r ->
              let b = ok "create_event" r in
              Client.assign_order c.client [ Order.must_before a b ] (fun r ->
                  ignore (ok "assign_order" r);
                  acked := (a, b) :: !acked;
                  session (n - 1))))
  in
  let fsyncs0 = fsyncs () in
  for _ = 1 to sessions do
    session rounds
  done;
  wait loop ~what:"the writes" (fun () -> !running = 0);
  let n = !writes and spent = fsyncs () - fsyncs0 in
  Alcotest.(check int) "every write acknowledged" (3 * sessions * rounds) n;
  if spent >= 3 * n then
    Alcotest.failf "%d fsyncs for %d writes: no group commit" spent n;
  (* Every machine crashes: what was not fsynced is gone.  Each replica
     restarts from its own storage alone and must hold every acked order. *)
  Array.iter Tcp.shutdown c.runtimes;
  Tcp.shutdown c.ct;
  List.iter (fun a -> Storage.Memory.crash (dir_of a)) [ 1; 2; 3 ];
  let pairs = !acked in
  List.iter
    (fun a ->
      let rt = chain_tcp loop in
      let _, engine = Server.start_node ~net:(Tcp.transport rt) ~addr:a ~durability () in
      (match Engine.query_order !engine pairs with
       | Ok rels ->
         List.iter
           (fun rel ->
             Alcotest.(check bool)
               (Printf.sprintf "replica %d recovered every acked order" a)
               true
               (Order.relation_equal rel Order.Before))
           rels
       | Error _ -> Alcotest.failf "replica %d lost an acked event" a);
      Tcp.shutdown rt)
    [ 1; 2; 3 ]

let suites =
  [ ( "loopback",
      [ Alcotest.test_case "3-replica TCP chain survives replica kill" `Slow
          test_kill_and_rejoin;
        Alcotest.test_case "group commit batches fsyncs, survives crash" `Slow
          test_group_commit_survives_crash ] );
  ]
