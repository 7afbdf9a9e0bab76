(* Failure-injection tests beyond single crashes: partitions, double
   failures, and fuzzed wire input. *)

open Kronos_simnet
open Kronos_replication
module Sim_transport = Kronos_transport.Sim_transport

(* These tests never set per-call deadlines, so a timeout is a failure. *)
let ok = function
  | Ok r -> r
  | Error `Timeout -> Alcotest.fail "unexpected proxy timeout"

let coordinator_addr = 1000

type cluster = {
  sim : Sim.t;
  raw_net : Chain.msg Net.t;  (* for partition/heal *)
  net : Chain.msg Kronos_transport.Transport.t;
  replicas : Chain.Replica.t array;
  coordinator : Chain.Coordinator.t;
}

let make_cluster ?(n = 3) ?(seed = 7L) () =
  let sim = Sim.create ~seed () in
  let raw_net = Net.create sim in
  let net = Sim_transport.of_net raw_net in
  let chain = List.init n (fun i -> i) in
  let replicas = Array.init n (fun i -> Toy_replica.register ~net ~addr:i ()) in
  let coordinator =
    Chain.Coordinator.create ~net ~addr:coordinator_addr ~chain
      ~ping_interval:0.1 ~failure_timeout:0.35 ()
  in
  { sim; raw_net; net; replicas; coordinator }

let make_proxy ?(addr = 2000) cluster =
  Proxy.create ~net:cluster.net ~addr ~coordinator:coordinator_addr
    ~request_timeout:0.4 ()

(* A replica partitioned away is removed from the chain; writes keep
   committing on the majority side, and the client never observes an
   error. *)
let test_partitioned_replica_removed () =
  let c = make_cluster ~n:3 () in
  let proxy = make_proxy c in
  let done1 = ref None in
  Proxy.write proxy "add:1" (fun r -> done1 := Some (ok r));
  Sim.run ~until:1.0 c.sim;
  Alcotest.(check (option string)) "first write" (Some "1") !done1;
  (* cut replica 1 off from everyone, including the coordinator *)
  Net.partition c.raw_net [ 1 ] [ 0; 2; coordinator_addr; 2000 ];
  Sim.run ~until:3.0 c.sim;
  let cfg = Chain.Coordinator.config c.coordinator in
  Alcotest.(check (list int)) "partitioned replica removed" [ 0; 2 ]
    cfg.Chain.chain;
  let done2 = ref None in
  Proxy.write proxy "add:10" (fun r -> done2 := Some (ok r));
  Sim.run ~until:6.0 c.sim;
  Alcotest.(check (option string)) "write after partition" (Some "11") !done2;
  (* healing does not bring the removed replica back into the chain (it
     must rejoin explicitly), and does not disturb the survivors *)
  Net.heal c.raw_net;
  let done3 = ref None in
  Proxy.write proxy "add:100" (fun r -> done3 := Some (ok r));
  Sim.run ~until:9.0 c.sim;
  Alcotest.(check (option string)) "write after heal" (Some "111") !done3;
  Alcotest.(check (list int)) "chain unchanged" [ 0; 2 ]
    (Chain.Coordinator.config c.coordinator).Chain.chain

(* Two of three replicas fail (the design point: f+1 replicas tolerate f):
   the last replica carries the service alone. *)
let test_double_failure () =
  let c = make_cluster ~n:3 () in
  let proxy = make_proxy c in
  Proxy.write proxy "add:5" ignore;
  Sim.run ~until:1.0 c.sim;
  Chain.Replica.crash c.replicas.(0);
  Chain.Replica.crash c.replicas.(2);
  Sim.run ~until:3.0 c.sim;
  Alcotest.(check (list int)) "one survivor" [ 1 ]
    (Chain.Coordinator.config c.coordinator).Chain.chain;
  let result = ref None in
  Proxy.write proxy "add:2" (fun r -> result := Some (ok r));
  Sim.run ~until:6.0 c.sim;
  Alcotest.(check (option string)) "single-replica chain serves" (Some "7") !result;
  (* reads too *)
  let answer = ref None in
  Proxy.read proxy "get" (fun r -> answer := Some (ok r));
  Sim.run ~until:8.0 c.sim;
  Alcotest.(check (option string)) "read" (Some "7") !answer

(* Simultaneous crash + rejoin churn: the service must converge. *)
let test_churn () =
  let c = make_cluster ~n:3 ~seed:15L () in
  let proxy = make_proxy c in
  let completed = ref 0 in
  let target = 30 in
  let rec loop i =
    if i < target then
      Proxy.write proxy "add:1" (fun _ ->
          incr completed;
          loop (i + 1))
  in
  loop 0;
  ignore
    (Sim.schedule c.sim ~delay:0.5 (fun () -> Chain.Replica.crash c.replicas.(2)));
  ignore
    (Sim.schedule c.sim ~delay:2.5 (fun () ->
         let fresh = Toy_replica.register ~net:c.net ~addr:9 () in
         Chain.Coordinator.join c.coordinator fresh));
  Sim.run ~until:30.0 c.sim;
  Alcotest.(check int) "all writes completed" target !completed;
  let answer = ref None in
  Proxy.read proxy "get" (fun r -> answer := Some (ok r));
  Sim.run ~until:32.0 c.sim;
  Alcotest.(check (option string)) "exactly-once through churn"
    (Some (string_of_int target)) !answer

(* Proxy behaviours not covered elsewhere. *)
let test_proxy_nth_clamping () =
  let c = make_cluster ~n:3 () in
  let proxy = make_proxy c in
  Proxy.write proxy "add:4" ignore;
  Sim.run ~until:1.0 c.sim;
  let answers = ref [] in
  (* out-of-range Nth must clamp, not crash *)
  Proxy.read proxy ~target:(Proxy.Nth 99) "get" (fun r -> answers := ok r :: !answers);
  Proxy.read proxy ~target:(Proxy.Nth (-5)) "get" (fun r -> answers := ok r :: !answers);
  Proxy.read proxy ~target:Proxy.Any "get" (fun r -> answers := ok r :: !answers);
  Sim.run ~until:3.0 c.sim;
  Alcotest.(check (list string)) "all clamped reads answered" [ "4"; "4"; "4" ]
    !answers;
  Alcotest.(check int) "config learned" 1 (Proxy.config_version proxy)

(* {1 Crash-restart with durable storage}

   A durable Kronos cluster: each replica keeps an in-memory "disk" that
   survives its process crash, so a restarted replica recovers from its own
   snapshot + WAL instead of needing a full state transfer. *)

open Kronos
module Server = Kronos_service.Server
module Client = Kronos_service.Client
module Storage = Kronos_durability.Storage

type durable_env = {
  dsim : Sim.t;
  dnet : Chain.msg Net.t;  (* for per-link drops *)
  cluster : Server.cluster;
  client : Client.t;
  writes : int ref;  (** completed write acknowledgements *)
  disks : (Net.addr, Storage.Memory.dir) Hashtbl.t;
}

(* A 3-replica cluster deployed with [durability], or without it when
   that is [None]. *)
let make_env ?(seed = 21L) ~durability disks =
  let sim = Sim.create ~seed () in
  let dnet = Net.create sim in
  let net = Sim_transport.of_net dnet in
  let cluster =
    Server.deploy ~net ~coordinator:coordinator_addr ~replicas:[ 0; 1; 2 ]
      ?durability ~ping_interval:0.1 ~failure_timeout:0.35 ()
  in
  let client =
    Client.create ~net ~addr:2000 ~coordinator:coordinator_addr
      ~cache_capacity:0 ~request_timeout:0.4 ()
  in
  { dsim = sim; dnet; cluster; client; writes = ref 0; disks }

(* With [in_memory], every replica start gets a fresh disk, as in a
   cluster deployed without [~durability] ([disks] then holds the latest
   one per address). *)
let make_durable_env ?seed ?(in_memory = false) ?wal_config
    ?wal_bytes_per_snapshot () =
  let disks : (Net.addr, Storage.Memory.dir) Hashtbl.t = Hashtbl.create 8 in
  let storage_of addr =
    let dir =
      match Hashtbl.find_opt disks addr with
      | Some dir when not in_memory -> dir
      | Some _ | None ->
        let dir = Storage.Memory.create () in
        Hashtbl.replace disks addr dir;
        dir
    in
    Storage.Memory.storage dir
  in
  make_env ?seed disks
    ~durability:
      (Some (Server.durability ?wal_config ?wal_bytes_per_snapshot ~storage_of ()))

(* A write-only workload (reads are not sequenced, so they would skew the
   per-replica stats we compare): create [n] events, then chain them with
   assign_order. *)
let run_write_workload ?(on_write = fun _ -> ()) env ~n k =
  let ids = ref [] in
  let ack () =
    incr env.writes;
    on_write !(env.writes)
  in
  let rec create i =
    if i = n then link (List.rev !ids)
    else
      Client.create_event env.client (function
          | Error _ -> assert false  (* no deadline: the client retries *)
          | Ok id ->
          ids := id :: !ids;
          ack ();
          create (i + 1))
  and link = function
    | a :: (b :: _ as rest) ->
      Client.assign_order env.client [ Order.must_before a b ]
        (fun _ ->
          ack ();
          link rest)
    | _ -> k (List.rev !ids)
  in
  create 0

let engines_identical what cluster =
  match cluster.Server.replicas with
  | [] -> Alcotest.fail "no replicas"
  | (_, first) :: rest ->
    List.iter
      (fun (replica, engine) ->
        let addr = Chain.Replica.addr replica in
        Alcotest.(check bool)
          (Printf.sprintf "%s: replica %d stats identical" what addr)
          true
          (Engine.stats !first = Engine.stats !engine);
        Alcotest.(check int)
          (Printf.sprintf "%s: replica %d live events" what addr)
          (Engine.live_events !first) (Engine.live_events !engine))
      rest

(* Kill the mid-chain replica during a write workload; restart it from its
   own WAL + snapshot.  It rejoins via tail integration — the predecessor
   ships only the missing log suffix, never a snapshot — and the chain
   reconverges with no lost or duplicated commands. *)
let test_durable_restart_via_wal_tail () =
  let env = make_durable_env () in
  let total_writes = 39 in (* 20 creates + 19 assigns *)
  let finished = ref false in
  (* kill the mid-chain replica partway through the workload *)
  run_write_workload env ~n:20
    ~on_write:(fun done_ -> if done_ = 15 then Server.crash env.cluster 1)
    (fun _ids -> finished := true);
  Sim.run ~until:4.0 env.dsim;
  Alcotest.(check bool) "workload survived the crash" true !finished;
  Alcotest.(check int) "every write acknowledged exactly once" total_writes
    !(env.writes);
  Alcotest.(check (list int)) "crashed replica removed" [ 0; 2 ]
    (Chain.Coordinator.config env.cluster.Server.coordinator).Chain.chain;
  (* the crashed replica's disk holds a strict, non-empty prefix of the
     workload: restart recovers it locally, and the tail ships the rest *)
  let durable_seq =
    let storage = Storage.Memory.storage (Hashtbl.find env.disks 1) in
    let _, records = Kronos_durability.Wal.open_ storage in
    List.fold_left
      (fun acc (r : Kronos_durability.Wal.record) -> max acc r.seq)
      0 records
  in
  Alcotest.(check bool) "durable local prefix" true
    (durable_seq > 0 && durable_seq < total_writes);
  Server.restart_replica env.cluster 1 ();
  Sim.run ~until:(Sim.now env.dsim +. 2.0) env.dsim;
  Alcotest.(check (list int)) "restarted replica rejoined at the tail" [ 0; 2; 1 ]
    (Chain.Coordinator.config env.cluster.Server.coordinator).Chain.chain;
  (match Server.replica_of env.cluster 1 with
   | Some replica ->
     Alcotest.(check int) "caught up" total_writes
       (Chain.Replica.last_applied replica);
     Alcotest.(check int) "no snapshot transfer needed" 0
       (Chain.Replica.snapshot_installs replica)
   | None -> Alcotest.fail "restarted replica missing");
  engines_identical "after restart" env.cluster

(* Same crash, but the survivors snapshot aggressively (every 200 WAL
   bytes, about four commands) and truncate their logs while the replica
   is down: its missing range is gone, so rejoin must fall back to
   shipping a snapshot plus the log above it. *)
let test_durable_restart_far_behind_installs_snapshot () =
  let env =
    make_durable_env
      ~wal_config:{ Kronos_durability.Wal.segment_bytes = 256; sync = Always }
      ~wal_bytes_per_snapshot:200 ()
  in
  let finished = ref false in
  run_write_workload env ~n:6 (fun _ -> finished := true);
  Sim.run ~until:2.0 env.dsim;
  Alcotest.(check bool) "first workload done" true !finished;
  Server.crash env.cluster 1;
  (* a second workload runs entirely while the replica is down, pushing the
     survivors through several snapshots and segment truncations *)
  let finished2 = ref false in
  run_write_workload env ~n:12 (fun _ -> finished2 := true);
  Sim.run ~until:(Sim.now env.dsim +. 4.0) env.dsim;
  Alcotest.(check bool) "second workload done" true !finished2;
  List.iter
    (fun addr ->
      let files =
        List.map fst (Storage.Memory.files (Hashtbl.find env.disks addr))
      in
      Alcotest.(check bool)
        (Printf.sprintf "survivor %d wrote a full snapshot" addr)
        true
        (List.exists (fun n -> Filename.check_suffix n ".snap") files))
    [ 0; 2 ];
  Server.restart_replica env.cluster 1 ();
  Sim.run ~until:(Sim.now env.dsim +. 2.0) env.dsim;
  (match Server.replica_of env.cluster 1 with
   | Some replica ->
     Alcotest.(check int) "snapshot transfer used" 1
       (Chain.Replica.snapshot_installs replica);
     Alcotest.(check int) "caught up" !(env.writes)
       (Chain.Replica.last_applied replica)
   | None -> Alcotest.fail "restarted replica missing");
  engines_identical "after snapshot install" env.cluster;
  (* and the restarted replica keeps serving: more writes reconverge *)
  let finished3 = ref false in
  run_write_workload env ~n:4 (fun _ -> finished3 := true);
  Sim.run ~until:(Sim.now env.dsim +. 2.0) env.dsim;
  Alcotest.(check bool) "writes after rejoin" true !finished3;
  engines_identical "after further writes" env.cluster

(* Fuzz: decoding arbitrary bytes must never raise anything except
   Codec.Decode_error, and valid encodings always survive a re-encode. *)
let prop_decode_fuzz =
  let open QCheck2 in
  Test.make ~name:"wire decode never crashes on garbage" ~count:500
    Gen.(string_size (int_bound 60))
    (fun bytes ->
      let safe decode =
        match decode bytes with
        | (_ : Kronos_wire.Message.request) -> true
        | exception Kronos_wire.Codec.Decode_error _ -> true
      in
      let safe_resp () =
        match Kronos_wire.Message.decode_response bytes with
        | (_ : Kronos_wire.Message.response) -> true
        | exception Kronos_wire.Codec.Decode_error _ -> true
      in
      safe Kronos_wire.Message.decode_request && safe_resp ())

(* Every pair of [ids] gets the same answer from replica [a] and replica
   [b].  Asked of published views, which update no engine counters, so
   [engines_identical] still holds afterwards. *)
let agree_on_pairs what cluster ids a b =
  let pairs = List.concat_map (fun x -> List.map (fun y -> (x, y)) ids) ids in
  let answers addr =
    match Server.engine_of cluster addr with
    | Some e -> (
      match Engine.View.query_order (Engine.publish e) pairs with
      | Ok rels -> rels
      | Error _ -> Alcotest.failf "%s: replica %d rejects a pair" what addr)
    | None -> Alcotest.failf "%s: replica %d missing" what addr
  in
  let differ =
    List.fold_left2
      (fun n r1 r2 -> if r1 = r2 then n else n + 1)
      0 (answers a) (answers b)
  in
  Alcotest.(check int)
    (Printf.sprintf "%s: pairs where %d and %d disagree" what a b)
    0 differ

(* A 3-replica deployment over snapshot-sized WAL windows and tiny
   segments, so the survivors truncate their logs; each case below then
   joins a blank replica that only a snapshot transfer can bring up. *)
let truncating_env ?in_memory () =
  make_durable_env ?in_memory
    ~wal_config:{ Kronos_durability.Wal.segment_bytes = 256; sync = Always }
    ~wal_bytes_per_snapshot:200 ()

let run_to_completion env ~n =
  let ids = ref None in
  run_write_workload env ~n (fun got -> ids := Some got);
  Sim.run ~until:(Sim.now env.dsim +. 4.0) env.dsim;
  match !ids with
  | Some ids -> ids
  | None -> Alcotest.fail "workload did not finish"

let check_snapshot_join what env ids addr =
  match Server.replica_of env.cluster addr with
  | Some replica ->
    Alcotest.(check int) (what ^ ": snapshot transfer used") 1
      (Chain.Replica.snapshot_installs replica);
    Alcotest.(check int) (what ^ ": caught up") !(env.writes)
      (Chain.Replica.last_applied replica);
    agree_on_pairs what env.cluster ids 2 addr;
    engines_identical what env.cluster
  | None -> Alcotest.fail "joined replica missing"

(* A cluster over fresh in-memory storage per start still truncates its
   WAL under snapshots, so a blank joiner and a restarted replica (which
   comes back blank) both catch up through [Sync_snapshot]. *)
let test_in_memory_blank_join_installs_snapshot () =
  let env = truncating_env ~in_memory:true () in
  let ids = run_to_completion env ~n:12 in
  let files =
    List.map fst (Storage.Memory.files (Hashtbl.find env.disks 2))
  in
  Alcotest.(check bool) "tail's WAL no longer starts at seq 1" false
    (List.mem "wal-0000000001.log" files);
  Server.join env.cluster 3 ();
  Sim.run ~until:(Sim.now env.dsim +. 2.0) env.dsim;
  check_snapshot_join "blank joiner" env ids 3;
  Server.crash env.cluster 1;
  Sim.run ~until:(Sim.now env.dsim +. 2.0) env.dsim;
  Server.restart_replica env.cluster 1 ();
  Sim.run ~until:(Sim.now env.dsim +. 2.0) env.dsim;
  check_snapshot_join "restarted blank" env ids 1

(* A write whose replies are all lost, retried across a tail that rejoins
   by snapshot: the new tail holds no reply for any seq at or below the
   snapshot, so it acks the re-forwarded retry without answering.  The
   head answers the retry itself, because an Ack already covered the
   write — every replica applied and committed it. *)
let test_lost_reply_retried_across_snapshot_join () =
  let env = truncating_env ~in_memory:true () in
  let sim = env.dsim in
  ignore (run_to_completion env ~n:4);
  let replies_lost lost =
    List.iter
      (fun a ->
        Net.set_link env.dnet ~src:a ~dst:2000
          { Net.default_latency with drop = (if lost then 1.0 else 0.0) })
      [ 0; 1; 2 ]
  in
  replies_lost true;
  let result = ref None in
  Client.create_event env.client ~timeout:8.0 (fun r -> result := Some r);
  Sim.run ~until:(Sim.now sim +. 0.5) sim;
  (* more writes push the survivors' snapshots past the lost one *)
  for _ = 1 to 8 do
    Client.create_event env.client ignore
  done;
  Sim.run ~until:(Sim.now sim +. 1.0) sim;
  Server.crash env.cluster 2;
  Sim.run ~until:(Sim.now sim +. 1.0) sim;
  Server.restart_replica env.cluster 2 ();
  Sim.run ~until:(Sim.now sim +. 1.0) sim;
  (match Server.replica_of env.cluster 2 with
   | Some replica ->
     Alcotest.(check int) "tail rejoined by snapshot" 1
       (Chain.Replica.snapshot_installs replica)
   | None -> Alcotest.fail "restarted replica missing");
  Alcotest.(check bool) "no reply reached the client yet" true (!result = None);
  replies_lost false;
  Sim.run ~until:(Sim.now sim +. 6.0) sim;
  match !result with
  | Some (Ok _) -> ()
  | Some (Error e) ->
    Alcotest.failf "retried write failed: %s" (Kronos_service.Error.to_string e)
  | None -> Alcotest.fail "retried write never answered"

(* A cluster deployed without [~durability] restarts a crashed replica
   blank, and the tail's WAL tail brings it back. *)
let test_restart_without_durability () =
  let env = make_env ~seed:25L ~durability:None (Hashtbl.create 1) in
  let sim = env.dsim and cluster = env.cluster in
  let ids = run_to_completion env ~n:6 in
  Server.crash cluster 1;
  Sim.run ~until:(Sim.now sim +. 2.0) sim;
  Server.restart_replica cluster 1 ();
  Alcotest.(check (option int)) "restarts blank" (Some 0)
    (Option.map Chain.Replica.last_applied (Server.replica_of cluster 1));
  Sim.run ~until:(Sim.now sim +. 2.0) sim;
  match Server.replica_of cluster 1 with
  | Some replica ->
    Alcotest.(check int) "caught up from blank" !(env.writes)
      (Chain.Replica.last_applied replica);
    Alcotest.(check int) "the WAL tail sufficed" 0
      (Chain.Replica.snapshot_installs replica);
    agree_on_pairs "restarted blank" cluster ids 2 1;
    engines_identical "restarted blank" cluster
  | None -> Alcotest.fail "restarted replica missing"

(* The sender's snapshot files are deleted under it (a planted loss) while
   its WAL is truncated: no file covers the joiner's range, so the
   transfer ships the sender's current engine at its last applied seq. *)
let test_join_after_snapshot_deleted () =
  let env = truncating_env () in
  let ids = run_to_completion env ~n:12 in
  let disk = Hashtbl.find env.disks 2 in
  let storage = Storage.Memory.storage disk in
  let planted =
    List.filter
      (fun (name, _) ->
        Filename.check_suffix name ".snap" || Filename.check_suffix name ".delta")
      (Storage.Memory.files disk)
  in
  Alcotest.(check bool) "tail had snapshot files" true (planted <> []);
  List.iter (fun (name, _) -> storage.Storage.remove_file name) planted;
  Alcotest.(check bool) "no snapshot left" true
    (Kronos_durability.Snapshot.load_chain_bytes storage = None);
  Server.join env.cluster 3 ();
  Sim.run ~until:(Sim.now env.dsim +. 2.0) env.dsim;
  check_snapshot_join "after planted loss" env ids 3;
  (* replica 3's log holds nothing below the installed snapshot, so the
     next blank joiner must get that snapshot, not an empty tail *)
  Server.join env.cluster 4 ();
  Sim.run ~until:(Sim.now env.dsim +. 2.0) env.dsim;
  check_snapshot_join "served by an installed snapshot" env ids 4;
  let more = run_to_completion env ~n:4 in
  agree_on_pairs "after further writes" env.cluster (ids @ more) 2 3;
  engines_identical "after further writes" env.cluster

let suites =
  [ ( "fault_injection",
      [
        Alcotest.test_case "partitioned replica removed" `Quick
          test_partitioned_replica_removed;
        Alcotest.test_case "double failure" `Quick test_double_failure;
        Alcotest.test_case "churn" `Quick test_churn;
        Alcotest.test_case "proxy nth clamping" `Quick test_proxy_nth_clamping;
        Alcotest.test_case "durable restart via wal tail" `Quick
          test_durable_restart_via_wal_tail;
        Alcotest.test_case "durable restart far behind" `Quick
          test_durable_restart_far_behind_installs_snapshot;
        Alcotest.test_case "in-memory blank join installs snapshot" `Quick
          test_in_memory_blank_join_installs_snapshot;
        Alcotest.test_case "lost reply retried across a snapshot join" `Quick
          test_lost_reply_retried_across_snapshot_join;
        Alcotest.test_case "restart without durability" `Quick
          test_restart_without_durability;
        Alcotest.test_case "join after snapshot files deleted" `Quick
          test_join_after_snapshot_deleted;
        QCheck_alcotest.to_alcotest prop_decode_fuzz;
      ] );
  ]
