(* Nemesis harness (DESIGN.md §16): a durable 3-replica chain over real TCP
   on 127.0.0.1, driven through a schedule of injected faults while a
   closed-loop workload keeps creating and ordering events:

   - {b partition}: every TCP connection between replica 2 and the rest of
     the cluster runs through byte-level drop proxies; partitioning closes
     the live connections and refuses new ones until healed;
   - {b clean kill + planted snapshot}: replica 2's runtime is shut down
     and a full snapshot of its engine is planted in its storage at the
     applied sequence, so recovery must resolve it among the schedule's
     own full snapshots;
   - {b machine crash + lying disk}: replica 2's storage wrapper silently
     drops fsyncs, then the "machine" crashes (un-synced bytes vanish) and
     a torn half-record is appended to the WAL tail — recovery must
     truncate the tear and rejoin from whatever really reached the disk.

   Replicas run the snapshot schedule with a tiny WAL window, so full
   snapshots, WAL segment retirement and compaction all churn
   constantly underneath the faults — every iteration checks that
   they did.  The checker asserts that no acknowledged order is ever lost
   (every acked pair still answers [Before] through the tail), that the
   replicas that never crashed converge bit-identically, that the
   restarted replica's engine matches the head, and that an offline
   re-recovery of the victim's storage resolves a full snapshot plus a
   bounded WAL tail.

   Iteration count: KRONOS_NEMESIS_ITERS (default 3; CI's PR lane runs a
   reduced count, the nightly lane the full schedule). *)

open Kronos
module Chain = Kronos_replication.Chain
module Server = Kronos_service.Server
module Client = Kronos_service.Client
module Storage = Kronos_durability.Storage
module Wal = Kronos_durability.Wal
module Snapshot = Kronos_durability.Snapshot
module Recovery = Kronos_durability.Recovery
module Transport = Kronos_transport.Transport
module Event_loop = Kronos_transport.Event_loop
module Tcp = Kronos_transport.Tcp_transport

let iters () =
  match Sys.getenv_opt "KRONOS_NEMESIS_ITERS" with
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> 3)
  | None -> 3

(* Fault-injecting storage wrapper: a real disk that misbehaves.
   [torn_next_append] writes only the first half of one append (a crash
   mid-write leaving a durable prefix); [drop_syncs] acknowledges fsyncs
   without performing them (a lying disk), so a later [Memory.crash]
   loses everything "synced" since the flag was set. *)
module Faults = struct
  type t = { mutable torn_next_append : bool; mutable drop_syncs : bool }

  let create () = { torn_next_append = false; drop_syncs = false }

  let storage f (base : Storage.t) : Storage.t =
    let open_append name =
      let w = base.Storage.open_append name in
      {
        w with
        Storage.append =
          (fun s ->
            if f.torn_next_append && String.length s > 1 then begin
              f.torn_next_append <- false;
              w.Storage.append (String.sub s 0 (String.length s / 2))
            end
            else w.Storage.append s);
        sync = (fun () -> if not f.drop_syncs then w.Storage.sync ());
      }
    in
    { base with Storage.open_append }
end

(* Byte-transparent TCP drop proxy on the shared event loop.  Partitioning
   closes every live connection pair and rejects new accepts, so learned
   return routes die with their sockets — both directions of any link
   through the proxy are severed at once. *)
module Proxy = struct
  type t = {
    loop : Event_loop.t;
    lsock : Unix.file_descr;
    port : int;
    upstream : int;
    mutable conns : (Unix.file_descr * Unix.file_descr) list;
    mutable partitioned : bool;
  }

  let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

  let write_all fd buf n =
    let off = ref 0 in
    while !off < n do
      off := !off + Unix.write fd buf !off (n - !off)
    done

  let drop_conn t fd =
    match List.find_opt (fun (a, b) -> a == fd || b == fd) t.conns with
    | None -> ()
    | Some (a, b) ->
      t.conns <- List.filter (fun (x, _) -> x != a) t.conns;
      Event_loop.forget t.loop a;
      Event_loop.forget t.loop b;
      close_fd a;
      close_fd b

  let pump t src dst =
    let buf = Bytes.create 65536 in
    Event_loop.watch_read t.loop src (fun () ->
        match Unix.read src buf 0 (Bytes.length buf) with
        | 0 -> drop_conn t src
        | n -> (
          try write_all dst buf n
          with Unix.Unix_error _ -> drop_conn t src)
        | exception Unix.Unix_error _ -> drop_conn t src)

  let create ~loop ~upstream =
    let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt lsock Unix.SO_REUSEADDR true;
    Unix.bind lsock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    Unix.listen lsock 16;
    let port =
      match Unix.getsockname lsock with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false
    in
    let t = { loop; lsock; port; upstream; conns = []; partitioned = false } in
    Event_loop.watch_read loop lsock (fun () ->
        match Unix.accept lsock with
        | exception Unix.Unix_error _ -> ()
        | c, _ ->
          if t.partitioned then close_fd c
          else begin
            let u = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            match
              Unix.connect u
                (Unix.ADDR_INET (Unix.inet_addr_loopback, t.upstream))
            with
            | exception Unix.Unix_error _ ->
              close_fd c;
              close_fd u
            | () ->
              Unix.setsockopt c Unix.TCP_NODELAY true;
              Unix.setsockopt u Unix.TCP_NODELAY true;
              t.conns <- (c, u) :: t.conns;
              pump t c u;
              pump t u c
          end);
    t

  let set_partitioned t flag =
    t.partitioned <- flag;
    if flag then List.iter (fun fd -> drop_conn t fd) (List.map fst t.conns)

  let close t =
    set_partitioned t true;
    Event_loop.forget t.loop t.lsock;
    close_fd t.lsock
end

let tcp_config =
  { Tcp.default_config with backoff_min = 0.02; backoff_max = 0.2 }

let chain_tcp loop =
  Tcp.create ~loop ~encode:Kronos_replication.Chain_codec.encode
    ~decode:Kronos_replication.Chain_codec.decode ~config:tcp_config ()

let coordinator_addr = 1000

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let head, rest = take n [] l in
    head :: chunks n rest

let test_nemesis_schedule () =
  let iterations = iters () in
  let loop = Event_loop.create () in
  let wait ~what ?(secs = 60.) pred =
    if
      not
        (Event_loop.run_until loop ~deadline:(Event_loop.now loop +. secs) pred)
    then Alcotest.fail ("timed out waiting for " ^ what)
  in

  (* Per-replica in-memory storage; replica 2's goes through the fault
     wrapper so the nemesis can tear writes and drop fsyncs. *)
  let dir1 = Storage.Memory.create () in
  let dir2 = Storage.Memory.create () in
  let dir3 = Storage.Memory.create () in
  let faults = Faults.create () in
  let storage2_raw = Storage.Memory.storage dir2 in
  let storage_of = function
    | 1 -> Storage.Memory.storage dir1
    | 2 -> Faults.storage faults storage2_raw
    | 3 -> Storage.Memory.storage dir3
    | a -> Alcotest.fail (Printf.sprintf "unexpected storage for addr %d" a)
  in
  (* A tiny WAL window so the snapshot schedule — full snapshots, WAL
     segment retirement, compaction — churns constantly: a window is about
     four commands, so each iteration's ~60 commands take every replica
     through a dozen snapshots. *)
  let durability =
    Server.durability
      ~wal_config:{ Wal.segment_bytes = 512; sync = Wal.Always }
      ~wal_bytes_per_snapshot:160 ~storage_of ()
  in
  let cval scope name =
    Kronos_metrics.Counter.value
      (Kronos_metrics.counter (Kronos_metrics.scope scope) name)
  in
  (* Newest full snapshot in a never-restarted replica's directory: it
     grows with every snapshot the schedule writes. *)
  let newest_full dir =
    List.fold_left
      (fun acc (n, _) ->
        if Filename.check_suffix n ".snap" then max acc n else acc)
      "" (Storage.Memory.files dir)
  in

  (* Real listeners first, then the proxies that front them. *)
  let t1 = chain_tcp loop and t3 = chain_tcp loop in
  let t2 = chain_tcp loop in
  let p1 = Tcp.listen t1 ~port:0 () in
  let p2 = Tcp.listen t2 ~port:0 () in
  let p3 = Tcp.listen t3 ~port:0 () in
  (* px2 fronts replica 2 for everyone else; px1/px3 front the rest of the
     cluster for replica 2 — so every 2<->rest link crosses a proxy. *)
  let px1 = Proxy.create ~loop ~upstream:p1 in
  let px2 = Proxy.create ~loop ~upstream:p2 in
  let px3 = Proxy.create ~loop ~upstream:p3 in
  let partition flag =
    List.iter (fun p -> Proxy.set_partitioned p flag) [ px1; px2; px3 ]
  in
  let mesh_main =
    [ (coordinator_addr, p1); (1, p1); (2, px2.Proxy.port); (3, p3) ]
  in
  let mesh_r2 =
    [
      (coordinator_addr, px1.Proxy.port);
      (1, px1.Proxy.port);
      (2, p2);
      (3, px3.Proxy.port);
    ]
  in
  let add_mesh t endpoints =
    List.iter
      (fun (a, p) -> Tcp.add_peer t a ~host:"127.0.0.1" ~port:p)
      endpoints
  in
  add_mesh t1 mesh_main;
  add_mesh t3 mesh_main;
  add_mesh t2 mesh_r2;

  let r1, e1 = Server.start_node ~net:(Tcp.transport t1) ~addr:1 ~durability () in
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
  let r2, e2 = Server.start_node ~net:(Tcp.transport t2) ~addr:2 ~durability () in
  join (Tcp.transport t2) r2;
  wait ~what:"replica 2 to join" (fun () -> chain_length () = 2);
  let r3, e3 = Server.start_node ~net:(Tcp.transport t3) ~addr:3 ~durability () in
  join (Tcp.transport t3) r3;
  wait ~what:"replica 3 to join" (fun () -> chain_length () = 3);

  let ct = chain_tcp loop in
  add_mesh ct mesh_main;
  Tcp.connect_peers ct;
  let client =
    Client.create ~net:(Tcp.transport ct) ~addr:9001
      ~coordinator:coordinator_addr ~request_timeout:0.25 ()
  in

  let t2cur = ref t2 and r2cur = ref r2 and e2cur = ref e2 in
  let acked = ref [] in

  (* Closed-loop workload: create events, chain each after the previous.
     No per-call deadline, so requests retry through reconfigurations and
     an acknowledgement is a promise.  [nemesis] fires after [at] acks. *)
  let run_workload ~total ~at ~nemesis () =
    let finished = ref false in
    let fired = ref false in
    let count = ref 0 in
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
                    incr count;
                    if (not !fired) && !count >= at then begin
                      fired := true;
                      nemesis ()
                    end;
                    step (Some e) (n - 1))))
    in
    step None total;
    wait ~what:"workload to finish over the fault" (fun () -> !finished);
    Alcotest.(check bool) "nemesis fired mid-workload" true !fired
  in

  (* Restart replica 2 from its (possibly damaged) storage on the same
     port, rejoin at the tail and wait for full convergence. *)
  let restart_r2 () =
    let t = chain_tcp loop in
    let (_ : int) = Tcp.listen t ~port:p2 () in
    add_mesh t mesh_r2;
    let r, e = Server.start_node ~net:(Tcp.transport t) ~addr:2 ~durability () in
    t2cur := t;
    r2cur := r;
    e2cur := e;
    join (Tcp.transport t) r;
    wait ~what:"replica 2 to rejoin" (fun () -> chain_length () = 3);
    wait ~what:"replicas to converge" (fun () ->
        Chain.Replica.last_applied r = Chain.Replica.last_applied r1
        && Chain.Replica.last_applied r3 = Chain.Replica.last_applied r1)
  in

  for iter = 1 to iterations do
    let retired0 = cval "durability" "snapshots_retired_total" in
    let full0 = newest_full dir1 in
    (match (iter - 1) mod 3 with
     | 0 ->
       (* Partition replica 2 mid-workload; the chain stalls until the
          coordinator removes it, then drains through [1;3].  Heal, shut
          the isolated runtime down and restart it from storage — with the
          next storage append torn, so a later recovery must skip the
          damaged file. *)
       run_workload ~total:30 ~at:8 ~nemesis:(fun () -> partition true) ();
       Alcotest.(check int) "chain reconfigured around the partition" 2
         (chain_length ());
       partition false;
       Tcp.shutdown !t2cur;
       faults.Faults.torn_next_append <- true;
       restart_r2 ()
     | 1 ->
       (* Clean kill, then plant a full snapshot at the replica's applied
          sequence: recovery must prefer it over the schedule's own fulls
          beside it. *)
       run_workload ~total:30 ~at:10
         ~nemesis:(fun () -> Tcp.shutdown !t2cur)
         ();
       Alcotest.(check int) "chain reconfigured around the kill" 2
         (chain_length ());
       let seq = Chain.Replica.last_applied !r2cur in
       Snapshot.write_bytes storage2_raw ~seq
         (Snapshot.encode ~seq (Engine.to_snapshot !(!e2cur)));
       restart_r2 ()
     | _ ->
       (* Lying disk: fsyncs silently dropped from here on, then the
          machine crashes (un-synced bytes vanish) and the WAL tail gets a
          torn half-record.  The replica recovers whatever truly reached
          the disk; the chain re-ships the rest on rejoin. *)
       faults.Faults.drop_syncs <- true;
       run_workload ~total:30 ~at:10
         ~nemesis:(fun () -> Tcp.shutdown !t2cur)
         ();
       Alcotest.(check int) "chain reconfigured around the crash" 2
         (chain_length ());
       faults.Faults.drop_syncs <- false;
       Storage.Memory.crash dir2;
       (match
          List.filter
            (fun n -> String.length n >= 4 && String.sub n 0 4 = "wal-")
            (storage2_raw.Storage.list_files ())
        with
        | [] -> ()
        | files ->
          let last = List.nth files (List.length files - 1) in
          let w = storage2_raw.Storage.open_append last in
          (* length prefix claims 32 bytes; only one follows: a torn
             mid-append frame the next open must truncate away. *)
          w.Storage.append "\x00\x00\x00\x20\xde";
          w.Storage.sync ();
          w.Storage.close ());
       restart_r2 ());
    (* After every iteration the restarted engine must match the head. *)
    Alcotest.(check bool)
      (Printf.sprintf "iteration %d: restarted engine matches head" iter)
      true
      (Engine.stats !e1 = Engine.stats !(!e2cur));
    (* ... and the snapshot schedule must have churned within it *)
    let churned what v0 v =
      Alcotest.(check bool) (Printf.sprintf "iteration %d: %s" iter what) true
        (v > v0)
    in
    churned "replica 1 wrote a full snapshot" full0 (newest_full dir1);
    churned "a snapshot file was retired" retired0
      (cval "durability" "snapshots_retired_total");
    List.iter
      (fun (addr, dir) ->
        let storage = Storage.Memory.storage dir in
        match (Snapshot.read_manifest storage, Snapshot.load_chain storage) with
        | Some (head, _), Some (seq, _) ->
          Alcotest.(check int)
            (Printf.sprintf "iteration %d: replica %d manifest head" iter addr)
            seq head
        | _ ->
          Alcotest.fail
            (Printf.sprintf "iteration %d: replica %d has no manifest or head"
               iter addr))
      [ (1, dir1); (3, dir3) ]
  done;

  (* The replicas that never crashed must be bit-identical: same commands,
     same code, same bytes. *)
  let canon e = Snapshot.encode ~seq:0 (Engine.to_snapshot e) in
  Alcotest.(check bool) "surviving replicas converge bit-identically" true
    (String.equal (canon !e1) (canon !e3));

  (* No lost acknowledged orders: every acked pair still answers Before
     through the tail — the most recently restarted replica. *)
  List.iter
    (fun pairs ->
      let answer = ref None in
      Client.query_order client pairs (fun r -> answer := Some r);
      wait ~what:"acked-pair query through the tail" (fun () ->
          !answer <> None);
      match Option.get !answer with
      | Error _ -> Alcotest.fail "query_order failed"
      | Ok rels ->
        Alcotest.(check int) "every acked pair answered" (List.length pairs)
          (List.length rels);
        List.iter
          (fun rel ->
            Alcotest.(check bool) "acked order survives the nemesis" true
              (Order.relation_equal rel Order.Before))
          rels)
    (chunks 32 (List.rev !acked));

  (* The snapshot schedule must have actually churned. *)
  Alcotest.(check bool) "full snapshots were written" true
    (cval "snapshot" "writes_total" > 0);
  Alcotest.(check bool) "WAL segments were retired" true
    (cval "durability" "segments_retired_total" > 0);

  (* Crash-safe compaction on the victim's storage: plant a stray tmp and
     compact around the live replica — redundant files go, the resolvable
     state does not, and the manifest only ever names files that exist. *)
  let before =
    match Snapshot.load_chain storage2_raw with
    | Some (seq, _) -> seq
    | None -> Alcotest.fail "victim storage lost its snapshot"
  in
  let w = storage2_raw.Storage.open_append "snap-0000000001.tmp" in
  w.Storage.append "interrupted";
  w.Storage.sync ();
  w.Storage.close ();
  let removed =
    Snapshot.compact storage2_raw ~keep:Kronos_durability.Schedule.fulls_kept
  in
  Alcotest.(check bool) "compaction retired the stray tmp" true (removed >= 1);
  Alcotest.(check bool) "snapshots retired counted" true
    (cval "durability" "snapshots_retired_total" > 0);
  (match Snapshot.load_chain storage2_raw with
   | Some (seq, _) ->
     Alcotest.(check int) "compaction preserved the recoverable head" before
       seq
   | None -> Alcotest.fail "compaction destroyed the snapshot");
  (match Snapshot.read_manifest storage2_raw with
   | None -> Alcotest.fail "compaction left no manifest"
   | Some (head, kept) ->
     Alcotest.(check int) "manifest head matches the recoverable head" before
       head;
     let files = storage2_raw.Storage.list_files () in
     List.iter
       (fun n ->
         Alcotest.(check bool)
           (Printf.sprintf "manifest entry %s exists" n)
           true (List.mem n files))
       kept);

  (* Offline re-recovery of the victim's storage (on a copy, so the live
     replica keeps running): a full snapshot must resolve and the
     replayed WAL tail must stay within what the replica actually
     acknowledged — recovery never invents state. *)
  let copy = Storage.Memory.storage (Storage.Memory.create ()) in
  List.iter
    (fun (name, contents) ->
      let w = copy.Storage.open_append name in
      w.Storage.append contents;
      w.Storage.sync ();
      w.Storage.close ())
    (Storage.Memory.files dir2);
  let oc = Recovery.run ~replay:(fun _ _ -> ()) copy in
  Alcotest.(check bool) "offline recovery resolves a snapshot" true
    (oc.Recovery.snapshot_seq > 0);
  Alcotest.(check bool) "offline recovery stays within acked state" true
    (oc.Recovery.next_seq - 1 <= Chain.Replica.last_applied !r2cur
     && oc.Recovery.next_seq - 1 >= oc.Recovery.snapshot_seq);

  List.iter Proxy.close [ px1; px2; px3 ];
  List.iter Tcp.shutdown [ ct; t1; !t2cur; t3 ]

let suites =
  [ ( "nemesis",
      [ Alcotest.test_case "3-replica TCP chain survives a fault schedule"
          `Slow test_nemesis_schedule ] );
  ]
