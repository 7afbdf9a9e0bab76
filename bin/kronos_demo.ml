(* End-to-end demo: a replicated Kronos deployment on the simulated network,
   driven through the typed client, with a mid-run failure to show the chain
   reconfiguring — a miniature of the whole system.

   The deployment is durable: each replica keeps a write-ahead log and
   snapshots in a real directory under /tmp, so the killed replica is
   restarted from its own disk (recovering its engine locally and fetching
   only the missed suffix from the chain) rather than rebuilt from scratch.

   Run with: dune exec bin/kronos_demo.exe *)

open Kronos
open Kronos_simnet
module Server = Kronos_service.Server
module Client = Kronos_service.Client

let () =
  Format.printf "== Kronos service demo: durable 3-replica chain + failure ==@.";
  let sim = Sim.create ~seed:2026L () in
  let net = Kronos_transport.Sim_transport.of_net (Net.create sim) in
  let base = Printf.sprintf "/tmp/kronos-demo-%d" (Unix.getpid ()) in
  let storage_of addr =
    Kronos_durability.Storage.files
      ~dir:(Filename.concat base (Printf.sprintf "replica-%d" addr))
  in
  (* a tiny WAL window, so the few commands below already snapshot *)
  let durability =
    Server.durability ~wal_bytes_per_snapshot:128 ~storage_of ()
  in
  let cluster =
    Server.deploy ~net ~coordinator:1000 ~replicas:[ 0; 1; 2 ] ~durability
      ~ping_interval:0.2 ~failure_timeout:0.8 ()
  in
  Format.printf "replica WALs and snapshots live under %s@." base;
  let client =
    Client.create ~net ~addr:2000 ~coordinator:1000 ~request_timeout:0.5 ()
  in
  let await f =
    let r = ref None in
    f (fun x -> r := Some x);
    while !r = None && Sim.pending sim > 0 do
      ignore (Sim.step sim)
    done;
    Option.get !r
  in
  let a = Result.get_ok (await (Client.create_event client)) in
  let b = Result.get_ok (await (Client.create_event client)) in
  Format.printf "created %a and %a (t=%.3fs virtual)@." Event_id.pp a Event_id.pp b
    (Sim.now sim);
  (match
     await (Client.assign_order client [ Order.must_before a b ])
   with
   | Ok _ -> Format.printf "ordered %a -> %a@." Event_id.pp a Event_id.pp b
   | Error e -> Format.printf "assign failed: %a@." Kronos_service.Error.pp e);
  (* kill the middle replica; the coordinator reconfigures the chain *)
  Format.printf "killing replica 1...@.";
  Server.crash cluster 1;
  Sim.run ~until:(Sim.now sim +. 3.0) sim;
  (match await (Client.query_order client [ (a, b); (b, a) ]) with
   | Ok rels ->
     Format.printf "order survives the failure: %a@."
       (Format.pp_print_list ~pp_sep:Format.pp_print_space Order.pp_relation)
       rels
   | Error e -> Format.printf "query failed: %a@." Kronos_service.Error.pp e);
  (* writes the crashed replica will have missed *)
  let c = Result.get_ok (await (Client.create_event client)) in
  ignore (await (Client.assign_order client [ Order.must_before b c ]));
  (* restart it from its own disk: the engine recovers from snapshot + WAL
     and the chain ships only the entries it missed *)
  Format.printf "restarting replica 1 from its write-ahead log...@.";
  Server.restart_replica cluster 1 ();
  Sim.run ~until:(Sim.now sim +. 3.0) sim;
  (match (Server.replica_of cluster 1, Server.engine_of cluster 1) with
   | Some replica, Some engine ->
     Format.printf
       "replica 1 recovered: %d events, %d edges, seq %d (snapshot transfers: %d)@."
       (Engine.live_events engine) (Engine.edges engine)
       (Kronos_replication.Chain.Replica.last_applied replica)
       (Kronos_replication.Chain.Replica.snapshot_installs replica)
   | _ -> ());
  (* a blank replica can still join with a full state transfer *)
  Format.printf "joining fresh replica 7...@.";
  Server.join cluster 7 ();
  Sim.run ~until:(Sim.now sim +. 3.0) sim;
  (match Server.engine_of cluster 7 with
   | Some engine ->
     Format.printf "fresh replica synced: %d events, %d edges@."
       (Engine.live_events engine) (Engine.edges engine)
   | None -> ());
  let d = Result.get_ok (await (Client.create_event client)) in
  (match
     await (Client.assign_order client [ Order.must_before c d ])
   with
   | Ok _ ->
     Format.printf "new writes flow through the healed chain: %a -> %a@."
       Event_id.pp c Event_id.pp d
   | Error e -> Format.printf "assign failed: %a@." Kronos_service.Error.pp e);
  Format.printf "done (%.3fs of virtual time)@." (Sim.now sim)
