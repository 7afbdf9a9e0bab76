(* The durability layer: WAL framing and recovery semantics, snapshot
   round-trips, and full crash-restart recovery checked against a reference
   engine at every workload prefix. *)

open Kronos
open Kronos_simnet
module Storage = Kronos_durability.Storage
module Wal = Kronos_durability.Wal
module Snapshot = Kronos_durability.Snapshot
module Recovery = Kronos_durability.Recovery
module Schedule = Kronos_durability.Schedule
module Crc32 = Kronos_durability.Crc32
module Graph_gen = Kronos_workload.Graph_gen
module Message = Kronos_wire.Message

let mem () =
  let dir = Storage.Memory.create () in
  (dir, Storage.Memory.storage dir)

let payload_of seq = Printf.sprintf "cmd-%04d" seq

let append_range wal lo hi =
  for seq = lo to hi do
    Wal.append wal ~seq ~payload:(payload_of seq)
  done

let check_records what expected records =
  Alcotest.(check (list (pair int string)))
    what
    (List.map (fun seq -> (seq, payload_of seq)) expected)
    (List.map (fun (r : Wal.record) -> (r.seq, r.payload)) records)

(* {1 CRC-32} *)

(* Bit-at-a-time CRC-32 over [int32]: the definition the table-driven
   [Crc32] must agree with, extending the running checksum [crc]. *)
let crc32_bitwise crc s =
  let c = ref (Int32.lognot crc) in
  String.iter
    (fun ch ->
      c := Int32.logxor !c (Int32.of_int (Char.code ch));
      for _ = 1 to 8 do
        let low = Int32.logand !c 1l <> 0l in
        c := Int32.shift_right_logical !c 1;
        if low then c := Int32.logxor !c 0xEDB88320l
      done)
    s;
  Int32.lognot !c

let test_crc32_known_answers () =
  let check what expected got =
    Alcotest.(check int32) what expected got
  in
  check "123456789" 0xCBF43926l (Crc32.string "123456789");
  check "empty" 0l (Crc32.string "");
  check "substring" 0xCBF43926l (Crc32.string ~off:2 ~len:9 "xx123456789yy");
  check "incremental" 0xCBF43926l
    (Crc32.update (Crc32.string "1234") "56789");
  Alcotest.check_raises "out of bounds"
    (Invalid_argument "Crc32.update: out of bounds") (fun () ->
      ignore (Crc32.string ~off:3 ~len:2 "abcd"))

let prop_crc32_matches_bitwise =
  let open QCheck2 in
  Test.make ~name:"crc32 matches the bitwise definition" ~count:500
    Gen.(triple (string_size (int_range 0 300)) nat int32)
    (fun (s, k, crc) ->
      let n = String.length s in
      let off = if n = 0 then 0 else k mod (n + 1) in
      let len = if n = off then 0 else (k / 7) mod (n - off + 1) in
      Int32.equal
        (Crc32.update crc ~off ~len s)
        (crc32_bitwise crc (String.sub s off len)))

(* {1 WAL} *)

let test_wal_round_trip () =
  let _dir, storage = mem () in
  let wal, recovered = Wal.open_ storage in
  check_records "fresh log empty" [] recovered;
  append_range wal 1 20;
  Wal.sync wal;
  let wal2, recovered = Wal.open_ storage in
  check_records "all records recovered" (List.init 20 (fun i -> i + 1)) recovered;
  Alcotest.(check int) "last seq" 20 (Wal.last_seq wal2);
  (match Wal.read_from wal2 ~since:5 with
   | Some records ->
     check_records "suffix from 6" (List.init 15 (fun i -> i + 6)) records
   | None -> Alcotest.fail "contiguous suffix unavailable");
  match Wal.read_from wal2 ~since:25 with
  | Some [] -> ()
  | Some _ -> Alcotest.fail "expected an empty suffix past the end"
  | None -> Alcotest.fail "a suffix past the end is trivially contiguous"

let test_wal_crash_drops_unsynced () =
  let dir, storage = mem () in
  let config = { Wal.segment_bytes = 1 lsl 20; sync = Wal.Never } in
  let wal, _ = Wal.open_ ~config storage in
  append_range wal 1 5;
  Wal.sync wal;
  append_range wal 6 8;
  Wal.flush wal;
  (* flushed but never fsynced: a crash loses exactly that suffix *)
  Storage.Memory.crash dir;
  let wal2, recovered = Wal.open_ ~config storage in
  check_records "synced prefix survives" [ 1; 2; 3; 4; 5 ] recovered;
  Alcotest.(check int) "positioned after prefix" 5 (Wal.last_seq wal2)

let test_wal_torn_tail_truncated () =
  let _dir, storage = mem () in
  let wal, _ = Wal.open_ storage in
  append_range wal 1 3;
  Wal.sync wal;
  (* simulate a torn write: half a record's worth of garbage at the tail *)
  let segment =
    match Wal.segment_files wal with
    | [ name ] -> name
    | files -> Alcotest.failf "expected one segment, got %d" (List.length files)
  in
  let w = storage.Storage.open_append segment in
  w.Storage.append "\x00\x00\x00\x20torn";
  w.Storage.sync ();
  w.Storage.close ();
  let wal2, recovered = Wal.open_ storage in
  check_records "valid prefix survives the torn tail" [ 1; 2; 3 ] recovered;
  (* the torn bytes were truncated away: appending works and re-opens clean *)
  Wal.append wal2 ~seq:4 ~payload:(payload_of 4);
  Wal.sync wal2;
  let _, recovered = Wal.open_ storage in
  check_records "appends continue past the repair" [ 1; 2; 3; 4 ] recovered

let test_wal_rotation_and_truncation () =
  let _dir, storage = mem () in
  let config = { Wal.segment_bytes = 64; sync = Wal.Always } in
  let wal, _ = Wal.open_ ~config storage in
  for seq = 1 to 10 do
    Wal.append wal ~seq ~payload:(payload_of seq);
    Wal.flush wal
  done;
  Alcotest.(check bool) "log rotated" true (List.length (Wal.segment_files wal) > 2);
  (match Wal.read_from wal ~since:0 with
   | Some records ->
     check_records "rotation preserves records" (List.init 10 (fun i -> i + 1)) records
   | None -> Alcotest.fail "full log should be readable before truncation");
  Wal.truncate_before wal ~seq:4;
  (match Wal.read_from wal ~since:4 with
   | Some records -> check_records "tail above the snapshot" [ 5; 6; 7; 8; 9; 10 ] records
   | None -> Alcotest.fail "tail above the snapshot must remain readable");
  (match Wal.read_from wal ~since:0 with
   | None -> ()
   | Some _ -> Alcotest.fail "truncated range must be reported unreadable");
  (* truncation works on whole segments: record 4 shares a segment with 5
     and 6, so it legitimately survives *)
  let _, recovered = Wal.open_ ~config storage in
  check_records "reopen sees only surviving segments" [ 4; 5; 6; 7; 8; 9; 10 ]
    recovered

(* A snapshot installed by state transfer can sit above every logged
   record.  The log must then report the range below it as gone, both on
   the handle that installed it and after recovery, or a state transfer
   would ship an empty tail to a joiner that needs the whole history. *)
let test_wal_truncated_past_its_end () =
  let _dir, storage = mem () in
  let wal, _ = Wal.open_ storage in
  append_range wal 1 3;
  Wal.flush wal;
  Wal.truncate_before wal ~seq:10;
  Alcotest.(check int) "last seq covers the snapshot" 10 (Wal.last_seq wal);
  Alcotest.(check bool) "range below the snapshot gone" true
    (Wal.read_from wal ~since:0 = None);
  Alcotest.(check bool) "nothing above the snapshot yet" true
    (Wal.read_from wal ~since:10 = Some []);
  Alcotest.check_raises "appends continue above the snapshot"
    (Invalid_argument "Wal.append: non-increasing seq") (fun () ->
      Wal.append wal ~seq:5 ~payload:"x");
  append_range wal 11 12;
  (match Wal.read_from wal ~since:10 with
   | Some records -> check_records "tail above the snapshot" [ 11; 12 ] records
   | None -> Alcotest.fail "tail above the snapshot must be readable");
  let _dir, storage = mem () in
  let wal, _ = Wal.open_ storage in
  append_range wal 1 3;
  Wal.flush wal;
  Snapshot.write storage ~seq:10 (Engine.create ());
  let outcome = Recovery.run ~replay:(fun _ _ -> ()) storage in
  Alcotest.(check int) "recovered at the snapshot" 11
    outcome.Recovery.next_seq;
  Alcotest.(check bool) "recovered log reports the range gone" true
    (Wal.read_from outcome.Recovery.wal ~since:0 = None)

let test_wal_sync_policies () =
  (* Always: one fsync per group commit *)
  let _dir, storage = mem () in
  let wal, _ = Wal.open_ ~config:{ Wal.segment_bytes = 1 lsl 20; sync = Wal.Always } storage in
  for seq = 1 to 5 do
    Wal.append wal ~seq ~payload:(payload_of seq);
    Wal.flush wal
  done;
  Alcotest.(check int) "always: fsync per commit" 5 (Wal.sync_count wal);
  (* Every_n: one fsync per n records, crash loses at most the window *)
  let dir, storage = mem () in
  let config = { Wal.segment_bytes = 1 lsl 20; sync = Wal.Every_n 3 } in
  let wal, _ = Wal.open_ ~config storage in
  for seq = 1 to 8 do
    Wal.append wal ~seq ~payload:(payload_of seq);
    Wal.flush wal
  done;
  Alcotest.(check int) "every_n: fsync per window" 2 (Wal.sync_count wal);
  Storage.Memory.crash dir;
  let _, recovered = Wal.open_ ~config storage in
  check_records "every_n: loss bounded by the window" [ 1; 2; 3; 4; 5; 6 ] recovered;
  (* Never: no fsyncs; a crash can lose everything since open *)
  let dir, storage = mem () in
  let config = { Wal.segment_bytes = 1 lsl 20; sync = Wal.Never } in
  let wal, _ = Wal.open_ ~config storage in
  for seq = 1 to 4 do
    Wal.append wal ~seq ~payload:(payload_of seq);
    Wal.flush wal
  done;
  Alcotest.(check int) "never: no fsyncs" 0 (Wal.sync_count wal);
  Storage.Memory.crash dir;
  let _, recovered = Wal.open_ ~config storage in
  check_records "never: crash loses the lot" [] recovered

(* {1 Workloads}

   A deterministic write-only command stream derived from a random graph:
   create the vertices, add the edges low->high (acyclic by construction),
   then release a few references to exercise garbage collection and slot
   reuse. *)

let workload ~seed ~n ~m =
  let rng = Rng.create ~seed:(Int64.of_int seed) in
  let g = Graph_gen.erdos_renyi_gnm ~rng ~n ~m in
  let scratch = Engine.create () in
  let ids = Array.init n (fun _ -> Engine.create_event scratch) in
  let cmds = ref [] in
  let push c = cmds := Message.encode_request c :: !cmds in
  for _ = 1 to n do
    push Message.Create_event
  done;
  Array.iter
    (fun (u, v) ->
      let u, v = (min u v, max u v) in
      push (Message.Assign_order [ Order.must_before ids.(u) ids.(v) ]))
    g.Graph_gen.edges;
  for i = 0 to n - 1 do
    if i mod 7 = 3 then push (Message.Release_ref ids.(i))
  done;
  (ids, List.rev !cmds)

let check_engines_agree what ids reference candidate =
  Alcotest.(check bool) (what ^ ": stats") true
    (Engine.stats reference = Engine.stats candidate);
  Alcotest.(check int) (what ^ ": live events")
    (Engine.live_events reference) (Engine.live_events candidate);
  Alcotest.(check int) (what ^ ": edges")
    (Engine.edges reference) (Engine.edges candidate);
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if i <> j then
            let expected = Engine.query_order reference [ (a, b) ] in
            let got = Engine.query_order candidate [ (a, b) ] in
            if expected <> got then
              Alcotest.failf "%s: query (%d, %d) diverges" what i j)
        ids)
    ids

let prop_snapshot_round_trip =
  let open QCheck2 in
  Test.make ~name:"snapshot round trip preserves behaviour" ~count:25
    Gen.(int_range 0 10_000)
    (fun seed ->
      let ids, cmds = workload ~seed ~n:24 ~m:48 in
      let reference = Engine.create () in
      List.iter (fun c -> ignore (Kronos_service.Server.apply reference c)) cmds;
      let restored = Engine.of_snapshot (Engine.to_snapshot reference) in
      check_engines_agree "round trip" ids reference restored;
      (* behavioural identity extends to future commands: slot reuse and
         fresh ids must match too *)
      let a = Engine.create_event reference and b = Engine.create_event restored in
      if not (Event_id.equal a b) then
        Alcotest.fail "fresh ids diverge after restore";
      check_engines_agree "after more commands" ids reference restored;
      true)

(* Version-5 snapshots persist the chain decomposition behind the label
   index.  The restore must install exactly the captured chains (labels are
   recomputed, never stored), so index-only answers are identical before
   and after; and a corrupted chain section must be rejected rather than
   installed as an over-approximating index. *)
let test_snapshot_v5_chains () =
  let ids, cmds = workload ~seed:23 ~n:12 ~m:20 in
  let engine = Engine.create () in
  List.iter (fun c -> ignore (Kronos_service.Server.apply engine c)) cmds;
  let bytes = Snapshot.encode ~seq:7 (Engine.to_snapshot engine) in
  let seq, snap = Snapshot.decode bytes in
  Alcotest.(check int) "seq" 7 seq;
  let restored = Engine.of_snapshot snap in
  check_engines_agree "v5 snapshot" ids engine restored;
  Alcotest.(check int) "chain count preserved" (Engine.chain_count engine)
    (Engine.chain_count restored);
  Alcotest.(check int) "restore recomputed labels once" 1
    (Engine.label_rebuilds restored);
  let g0 = Engine.graph engine and g1 = Engine.graph restored in
  Array.iter
    (fun u ->
      Array.iter
        (fun v ->
          if not (Event_id.equal u v) then
            Alcotest.(check (option bool)) "index answers identical"
              (Graph.label_reachable g0 u v) (Graph.label_reachable g1 u v))
        ids)
    ids;
  (* a corrupt chain section must raise, not load *)
  let cs = snap.Engine.snap_graph.Graph.snap_chains in
  let bad_of = Array.copy cs.Graph.cs_chain_of in
  bad_of.(0) <- 9999;
  let bad =
    { snap with
      Engine.snap_graph =
        { snap.Engine.snap_graph with
          Graph.snap_chains = { cs with Graph.cs_chain_of = bad_of } } }
  in
  match Engine.of_snapshot bad with
  | _ -> Alcotest.fail "corrupt chain section accepted"
  | exception Invalid_argument _ -> ()

(* Label entries pack a chain id below 2^22 and a position below 2^40, so
   a chain section that needs more is rejected: one naming chain 2^22,
   and one whose chain is longer than 2^40 but otherwise well formed (its
   live members shifted to the top of the longer chain). *)
let test_snapshot_chain_range () =
  let _, cmds = workload ~seed:23 ~n:12 ~m:20 in
  let engine = Engine.create () in
  List.iter (fun c -> ignore (Kronos_service.Server.apply engine c)) cmds;
  let snap = Engine.to_snapshot engine in
  let cs = snap.Engine.snap_graph.Graph.snap_chains in
  let with_chains cs =
    { snap with
      Engine.snap_graph = { snap.Engine.snap_graph with Graph.snap_chains = cs } }
  in
  let rejected what expected cs =
    match Engine.of_snapshot (with_chains cs) with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument m ->
      Alcotest.(check string) what ("Graph.of_snapshot: " ^ expected) m
  in
  let c0 = cs.Graph.cs_chain_of.(0) in
  if c0 < 0 then Alcotest.fail "workload left slot 0 off-chain";
  let far = 1 lsl 22 in
  let of_ = Array.copy cs.Graph.cs_chain_of in
  of_.(0) <- far;
  let len = Array.make (far + 1) 0 in
  Array.blit cs.Graph.cs_chain_len 0 len 0 (Array.length cs.Graph.cs_chain_len);
  rejected "chain id 2^22" "chain id outside the packed range"
    { cs with Graph.cs_chain_of = of_; cs_chain_len = len };
  (* chain [c0] grown to [n] members ever appended, its live members the
     top positions *)
  let grown n =
    let shift = n - cs.Graph.cs_chain_len.(c0) in
    let len = Array.copy cs.Graph.cs_chain_len in
    len.(c0) <- n;
    { cs with
      Graph.cs_chain_len = len;
      cs_chain_pos =
        Array.mapi
          (fun i p -> if cs.Graph.cs_chain_of.(i) = c0 then p + shift else p)
          cs.Graph.cs_chain_pos }
  in
  rejected "chain length 2^40 + 1" "chain length outside the packed range"
    (grown ((1 lsl 40) + 1));
  (* exactly 2^40 is in range and loads *)
  ignore (Engine.of_snapshot (with_chains (grown (1 lsl 40))))

let test_snapshot_files () =
  let _dir, storage = mem () in
  let ids, cmds = workload ~seed:7 ~n:12 ~m:18 in
  let engine = Engine.create () in
  List.iteri
    (fun i c ->
      ignore (Kronos_service.Server.apply engine c);
      if (i + 1) mod 10 = 0 then Snapshot.write storage ~seq:(i + 1) engine)
    cmds;
  let final = List.length cmds in
  Snapshot.write storage ~seq:final engine;
  (match Snapshot.load_chain storage with
   | Some (seq, restored) ->
     Alcotest.(check int) "newest snapshot wins" final seq;
     check_engines_agree "loaded snapshot" ids engine restored
   | None -> Alcotest.fail "snapshot missing");
  (* corrupt the newest file: readers must fall back to the next older *)
  let newest = Snapshot.filename ~seq:final in
  storage.Storage.remove_file newest;
  let w = storage.Storage.open_append newest in
  w.Storage.append "KSNPgarbage";
  w.Storage.sync ();
  w.Storage.close ();
  (match Snapshot.load_chain storage with
   | Some (seq, _) ->
     Alcotest.(check bool) "fell back past corruption" true (seq < final)
   | None -> Alcotest.fail "no fallback snapshot");
  ignore (Snapshot.compact storage ~keep:1);
  let snaps =
    List.filter
      (fun n -> Filename.check_suffix n ".snap")
      (storage.Storage.list_files ())
  in
  Alcotest.(check int) "compact keeps one" 1 (List.length snaps);
  (* the one kept is the valid fallback, not the corrupt newest file *)
  match Snapshot.load_chain storage with
  | Some (seq, _) ->
    Alcotest.(check bool) "kept snapshot still loads" true (seq < final)
  | None -> Alcotest.fail "compact kept no loadable snapshot"

(* Interrupted writes leave [snap-*.tmp] files behind; compaction retires
   them and nothing else that recovery needs. *)
let test_compact_retires_temporaries () =
  let _dir, storage = mem () in
  let engine = Engine.create () in
  ignore (Engine.create_event engine);
  Snapshot.write storage ~seq:1 engine;
  ignore (Engine.create_event engine);
  Snapshot.write storage ~seq:2 engine;
  let strays = [ "snap-0000000003.tmp"; "snap-0000000004.tmp" ] in
  List.iter
    (fun name ->
      let w = storage.Storage.open_append name in
      w.Storage.append "interrupted";
      w.Storage.sync ();
      w.Storage.close ())
    strays;
  Alcotest.(check int) "both strays retired" 2
    (Snapshot.compact storage ~keep:2);
  Alcotest.(check (list string)) "both fulls and the manifest remain"
    [ "MANIFEST"; Snapshot.filename ~seq:1; Snapshot.filename ~seq:2 ]
    (List.sort compare (storage.Storage.list_files ()));
  match Snapshot.load_chain storage with
  | Some (seq, _) -> Alcotest.(check int) "newest full still loads" 2 seq
  | None -> Alcotest.fail "compaction destroyed the newest snapshot"

(* Crash-restart recovery must reproduce the reference engine at {e every}
   prefix of the workload, across snapshot cadences and segment rotations. *)
let test_recovery_every_prefix () =
  let ids, cmds = workload ~seed:11 ~n:12 ~m:16 in
  let cmds = Array.of_list cmds in
  let total = Array.length cmds in
  let wal_config = { Wal.segment_bytes = 128; sync = Wal.Always } in
  for prefix = 0 to total do
    (* reference: a replica that never crashed *)
    let reference = Engine.create () in
    for i = 0 to prefix - 1 do
      ignore (Kronos_service.Server.apply reference cmds.(i))
    done;
    (* durable run: log every command, snapshot every 5, then "crash" *)
    let _dir, storage = mem () in
    let wal, _ = Wal.open_ ~config:wal_config storage in
    let engine = Engine.create () in
    for i = 0 to prefix - 1 do
      let seq = i + 1 in
      ignore (Kronos_service.Server.apply engine cmds.(i));
      Wal.append wal ~seq ~payload:cmds.(i);
      Wal.flush wal;
      if seq mod 5 = 0 then begin
        Snapshot.write storage ~seq engine;
        Wal.truncate_before wal ~seq;
        ignore (Snapshot.compact storage ~keep:2)
      end
    done;
    Wal.sync wal;
    let outcome =
      Recovery.run ~wal_config
        ~replay:(fun e (r : Wal.record) ->
          ignore (Kronos_service.Server.apply e r.payload))
        storage
    in
    Alcotest.(check int)
      (Printf.sprintf "prefix %d: next seq" prefix)
      (prefix + 1) outcome.Recovery.next_seq;
    if prefix >= 5 then
      Alcotest.(check bool)
        (Printf.sprintf "prefix %d: recovered from a snapshot" prefix)
        true
        (outcome.Recovery.snapshot_seq > 0);
    check_engines_agree
      (Printf.sprintf "prefix %d" prefix)
      ids reference outcome.Recovery.engine
  done

let test_recovery_after_crash_loses_only_unsynced () =
  let ids, cmds = workload ~seed:3 ~n:10 ~m:12 in
  let cmds = Array.of_list cmds in
  let wal_config = { Wal.segment_bytes = 1 lsl 20; sync = Wal.Every_n 4 } in
  let dir, storage = mem () in
  let wal, _ = Wal.open_ ~config:wal_config storage in
  let engine = Engine.create () in
  let applied = 10 in
  for i = 0 to applied - 1 do
    ignore (Kronos_service.Server.apply engine cmds.(i));
    Wal.append wal ~seq:(i + 1) ~payload:cmds.(i);
    Wal.flush wal
  done;
  (* fsyncs landed after records 4 and 8: the crash rolls back to 8 *)
  Storage.Memory.crash dir;
  let outcome =
    Recovery.run ~wal_config
      ~replay:(fun e (r : Wal.record) ->
        ignore (Kronos_service.Server.apply e r.payload))
      storage
  in
  Alcotest.(check int) "rolled back to last fsync" 9 outcome.Recovery.next_seq;
  let reference = Engine.create () in
  for i = 0 to 7 do
    ignore (Kronos_service.Server.apply reference cmds.(i))
  done;
  check_engines_agree "recovered at the fsync boundary" ids reference
    outcome.Recovery.engine

(* {1 Snapshot versions and kinds (DESIGN.md §16)} *)

(* Rewrite the u16 format version in a snapshot header (bytes 4-5).  The
   CRC covers only the body, so the relabelled file stays checksum-valid. *)
let relabel data v =
  let b = Bytes.of_string data in
  Bytes.set_uint16_be b 4 v;
  Bytes.to_string b

(* Flip one bit of the body's last byte: the checksum no longer matches. *)
let corrupt_body data =
  let b = Bytes.of_string data in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

(* This build reads one snapshot format.  Its encoding is pinned: a fixed
   workload must keep producing the bytes every build since format 5 was
   introduced has written.  An intact file under any other version number
   — a retired one or a newer build's — is refused with
   [Unsupported_version] naming that number, while a corrupt body stays a
   plain decode error whatever its header says (the checksum is checked
   before the version). *)
let test_snapshot_version_matrix () =
  let ids, cmds = workload ~seed:41 ~n:14 ~m:24 in
  let engine = Engine.create () in
  List.iter (fun c -> ignore (Kronos_service.Server.apply engine c)) cmds;
  let bytes = Snapshot.encode ~seq:40 (Engine.to_snapshot engine) in
  Alcotest.(check string) "format 5 encoding unchanged"
    "ea533022be1f1061447438664bb5e3e1" (Digest.to_hex (Digest.string bytes));
  for v = 0 to Snapshot.version + 2 do
    let data = relabel bytes v in
    (match Snapshot.decode data with
     | seq, snap ->
       if v <> Snapshot.version then Alcotest.failf "version %d decoded" v;
       Alcotest.(check int) "seq" 40 seq;
       check_engines_agree "current format" ids engine (Engine.of_snapshot snap)
     | exception Snapshot.Unsupported_version { version; _ } ->
       if v = Snapshot.version then Alcotest.fail "current format refused";
       Alcotest.(check int) "refused version reported" v version);
    match Snapshot.decode (corrupt_body data) with
    | _ -> Alcotest.failf "corrupt version-%d body decoded" v
    | exception Kronos_wire.Codec.Decode_error _ -> ()
  done

(* [is_valid] accepts an intact file and rejects one with any single body
   byte flipped, checksumming the body in place: a copy of it would show
   up as allocation proportional to the file. *)
let test_snapshot_is_valid () =
  let _ids, cmds = workload ~seed:43 ~n:200 ~m:400 in
  let engine = Engine.create () in
  List.iter (fun c -> ignore (Kronos_service.Server.apply engine c)) cmds;
  let data = Snapshot.encode ~seq:7 (Engine.to_snapshot engine) in
  let file = Snapshot.filename ~seq:7 in
  let before = Gc.allocated_bytes () in
  let intact = Snapshot.is_valid ~file data in
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) "intact file accepted" true intact;
  Alcotest.(check bool)
    (Printf.sprintf "no body copy (%.0f bytes allocated for a %d-byte file)"
       allocated (String.length data))
    true
    (allocated < float_of_int (String.length data / 4));
  List.iter
    (fun i ->
      let b = Bytes.of_string data in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      Alcotest.(check bool)
        (Printf.sprintf "body byte %d flipped: rejected" i)
        false
        (Snapshot.is_valid ~file (Bytes.to_string b)))
    [ 10; String.length data / 2; String.length data - 1 ]

(* A checksum-valid head in a format this build does not read — retired
   (4) or newer (6) — sits above an older valid full snapshot, with the WAL
   already truncated past that full.  Skipping the head the way a corrupt
   file is skipped would restore the old full and stop replay at the WAL
   gap: a silent rollback of every acknowledged command in between.
   Recovery must stop loudly instead, naming the file and version, and so
   must every other resolver; a body-corrupted head in the same position
   still falls back. *)
let test_retired_version_stops_recovery () =
  let ids, cmds = workload ~seed:41 ~n:14 ~m:24 in
  let cmds = Array.of_list cmds in
  let total = Array.length cmds in
  let wal_config = { Wal.segment_bytes = 256; sync = Wal.Always } in
  let _dir, storage = mem () in
  let wal, _ = Wal.open_ ~config:wal_config storage in
  let engine = Engine.create () in
  Array.iteri
    (fun i c ->
      let seq = i + 1 in
      ignore (Kronos_service.Server.apply engine c);
      Wal.append wal ~seq ~payload:c;
      Wal.flush wal;
      if seq = 16 || seq = 32 then begin
        Snapshot.write storage ~seq engine;
        Wal.truncate_before wal ~seq
      end)
    cmds;
  Wal.sync wal;
  let recover () =
    Recovery.run ~wal_config
      ~replay:(fun e (r : Wal.record) ->
        ignore (Kronos_service.Server.apply e r.payload))
      storage
  in
  let outcome = recover () in
  Alcotest.(check int) "intact head recovered" 32 outcome.Recovery.snapshot_seq;
  Alcotest.(check int) "whole log recovered" (total + 1)
    outcome.Recovery.next_seq;
  check_engines_agree "intact head" ids engine outcome.Recovery.engine;
  let head = Snapshot.filename ~seq:32 in
  let current =
    match storage.Storage.read_file head with
    | Some data -> data
    | None -> Alcotest.fail "head snapshot missing"
  in
  let plant data =
    storage.Storage.remove_file head;
    let w = storage.Storage.open_append head in
    w.Storage.append data;
    w.Storage.sync ();
    w.Storage.close ()
  in
  let refused what v f =
    match f () with
    | _ -> Alcotest.failf "%s skipped a version-%d head" what v
    | exception Snapshot.Unsupported_version { file; version } ->
      Alcotest.(check string) (what ^ ": file named") head file;
      Alcotest.(check int) (what ^ ": version named") v version
  in
  List.iter
    (fun v ->
      plant (relabel current v);
      refused "recovery" v (fun () -> ignore (recover ()));
      refused "load_chain_bytes" v (fun () ->
          ignore (Snapshot.load_chain_bytes storage));
      refused "compact" v (fun () -> ignore (Snapshot.compact storage ~keep:2)))
    [ 4; 6 ];
  plant (corrupt_body current);
  let outcome = recover () in
  Alcotest.(check int) "corrupt head falls back" 16
    outcome.Recovery.snapshot_seq;
  Alcotest.(check bool) "the WAL no longer covers the gap" true
    (outcome.Recovery.next_seq <= 32)

(* An earlier build also wrote delta files ([delta-<seq>.delta]) chained
   onto a full snapshot, and truncated the WAL past the full below them.
   Recovering from that full would stop replay at the WAL gap: a silent
   rollback of every command the deltas covered.  A directory holding a
   delta file, intact or torn, must stop recovery instead, naming it. *)
let test_delta_file_stops_recovery () =
  let _, cmds = workload ~seed:41 ~n:14 ~m:24 in
  let cmds = Array.of_list cmds in
  let wal_config = { Wal.segment_bytes = 256; sync = Wal.Always } in
  let _dir, storage = mem () in
  let wal, _ = Wal.open_ ~config:wal_config storage in
  let engine = Engine.create () in
  Array.iteri
    (fun i c ->
      let seq = i + 1 in
      ignore (Kronos_service.Server.apply engine c);
      Wal.append wal ~seq ~payload:c;
      Wal.flush wal;
      if seq = 16 then Snapshot.write storage ~seq engine;
      if seq = 32 then Wal.truncate_before wal ~seq)
    cmds;
  Wal.sync wal;
  let file = "delta-0000000032.delta" in
  let refused what data version =
    storage.Storage.remove_file file;
    let w = storage.Storage.open_append file in
    w.Storage.append data;
    w.Storage.sync ();
    w.Storage.close ();
    match
      Recovery.run ~wal_config
        ~replay:(fun e (r : Wal.record) ->
          ignore (Kronos_service.Server.apply e r.payload))
        storage
    with
    | _ -> Alcotest.failf "recovery skipped a %s delta file" what
    | exception Snapshot.Unsupported_version v ->
      Alcotest.(check string) (what ^ ": file named") file v.file;
      Alcotest.(check int) (what ^ ": version named") version v.version
  in
  (* a delta header: magic, u16 version 1, u32 crc, then the body *)
  refused "intact" "KSND\x00\x01\x00\x00\x00\x00body" 1;
  refused "torn" "KSN" 0;
  Alcotest.(check bool) "the full below it is untouched" true
    (List.mem (Snapshot.filename ~seq:16) (storage.Storage.list_files ()))

(* Restart over a full snapshot + WAL-tail directory: recovery restores
   the newest full, replays exactly the uncovered suffix, and reports how
   much work that took through the outcome and the recovery metrics. *)
let test_snapshot_wal_tail_recovery () =
  let ids, cmds = workload ~seed:31 ~n:14 ~m:22 in
  let cmds = Array.of_list cmds in
  let total = Array.length cmds in
  Alcotest.(check int) "workload length" 38 total;
  let wal_config = { Wal.segment_bytes = 256; sync = Wal.Always } in
  let _dir, storage = mem () in
  let wal, _ = Wal.open_ ~config:wal_config storage in
  let engine = Engine.create () in
  Array.iteri
    (fun i c ->
      let seq = i + 1 in
      ignore (Kronos_service.Server.apply engine c);
      Wal.append wal ~seq ~payload:c;
      Wal.flush wal;
      if seq mod 6 = 0 then begin
        Snapshot.write storage ~seq engine;
        Wal.truncate_before wal ~seq
      end)
    cmds;
  Wal.sync wal;
  let outcome =
    Recovery.run ~wal_config
      ~replay:(fun e (r : Wal.record) ->
        ignore (Kronos_service.Server.apply e r.payload))
      storage
  in
  (* fulls at 6..36, records 37-38 replayed *)
  Alcotest.(check int) "recovered head" 36 outcome.Recovery.snapshot_seq;
  Alcotest.(check int) "next seq" (total + 1) outcome.Recovery.next_seq;
  Alcotest.(check int) "bounded tail replayed" 2 outcome.Recovery.replayed;
  Alcotest.(check bool) "replayed bytes accounted" true
    (outcome.Recovery.wal_bytes_replayed > 0);
  Alcotest.(check bool) "timings are sane" true
    (outcome.Recovery.replay_ms >= 0.
     && outcome.Recovery.recovery_ms >= outcome.Recovery.replay_ms);
  check_engines_agree "snapshot + WAL tail recovery" ids engine
    outcome.Recovery.engine;
  (* the run is visible through the metrics registry *)
  Alcotest.(check bool) "wal bytes counter advanced" true
    (Kronos_metrics.Counter.value
       (Kronos_metrics.counter
          (Kronos_metrics.scope "recovery")
          "wal_bytes_replayed_total")
     > 0)

(* A torn write of the newest full snapshot (its final name holds
   garbage, and the interrupted write left its temporary behind):
   recovery falls back to the older full and replays the WAL above it,
   and compaction retires the torn file and the stray while auditing the
   head recovery actually restores — never the torn file's. *)
let test_torn_snapshot_write_compaction () =
  let ids, cmds = workload ~seed:43 ~n:12 ~m:18 in
  let cmds = Array.of_list cmds in
  let total = Array.length cmds in
  Alcotest.(check int) "workload length" 32 total;
  let wal_config = { Wal.segment_bytes = 256; sync = Wal.Always } in
  let _dir, storage = mem () in
  let wal, _ = Wal.open_ ~config:wal_config storage in
  let engine = Engine.create () in
  Array.iteri
    (fun i c ->
      let seq = i + 1 in
      ignore (Kronos_service.Server.apply engine c);
      Wal.append wal ~seq ~payload:c;
      Wal.flush wal;
      (* fulls at 8, 16, 24; the write at 32 tears below *)
      if seq mod 8 = 0 && seq < total then begin
        Snapshot.write storage ~seq engine;
        Wal.truncate_before wal ~seq
      end)
    cmds;
  Wal.sync wal;
  let torn = Snapshot.filename ~seq:32 in
  List.iter
    (fun (name, data) ->
      let w = storage.Storage.open_append name in
      w.Storage.append data;
      w.Storage.sync ();
      w.Storage.close ())
    [ (torn, "KSNPtorn"); ("snap-0000000032.tmp", "interrupted") ];
  let recover () =
    Recovery.run ~wal_config
      ~replay:(fun e (r : Wal.record) ->
        ignore (Kronos_service.Server.apply e r.payload))
      storage
  in
  let o = recover () in
  Alcotest.(check int) "fell back past the torn head" 24 o.Recovery.snapshot_seq;
  Alcotest.(check int) "the WAL above it replayed" 8 o.Recovery.replayed;
  check_engines_agree "torn-head fallback" ids engine o.Recovery.engine;
  (* torn head, stray tmp and the full beyond [keep] *)
  Alcotest.(check int) "retired" 3 (Snapshot.compact storage ~keep:2);
  Alcotest.(check (list string)) "the two newest valid fulls remain"
    [ Snapshot.filename ~seq:16; Snapshot.filename ~seq:24 ]
    (List.filter (String.starts_with ~prefix:"snap-")
       (storage.Storage.list_files ()));
  (match Snapshot.read_manifest storage with
   | None -> Alcotest.fail "compaction wrote no manifest"
   | Some (head, kept) ->
     Alcotest.(check int) "manifest audits the restorable head" 24 head;
     let files = storage.Storage.list_files () in
     List.iter
       (fun n ->
         Alcotest.(check bool)
           (Printf.sprintf "manifest entry %s exists" n)
           true (List.mem n files))
       kept);
  (* compaction must not have hurt recoverability *)
  let o = recover () in
  Alcotest.(check (pair int int)) "head and tail unchanged by compaction"
    (24, total + 1) (o.Recovery.snapshot_seq, o.Recovery.next_seq)

(* The snapshot schedule every durable replica runs.  With a one-byte
   window every group commit writes a full snapshot, and the directory
   never holds more than [fulls_kept] of them.  Recovery resolves the
   schedule's head, and a schedule created over the recovered state
   carries on. *)
let test_schedule_cadence () =
  let ids, cmds = workload ~seed:31 ~n:14 ~m:22 in
  let cmds = Array.of_list cmds in
  let total = Array.length cmds in
  let restart_at = 30 in
  let wal_config = { Wal.segment_bytes = 256; sync = Wal.Always } in
  let _dir, storage = mem () in
  let run wal engine schedule lo hi =
    for seq = lo to hi do
      ignore (Kronos_service.Server.apply engine cmds.(seq - 1));
      Wal.append wal ~seq ~payload:cmds.(seq - 1);
      Schedule.commit schedule engine ~upto:seq;
      Alcotest.(check int) "every commit snapshots" seq
        (Schedule.last_snapshot schedule);
      let snaps =
        List.filter (String.starts_with ~prefix:"snap-")
          (storage.Storage.list_files ())
      in
      Alcotest.(check bool) "a full snapshot at the commit" true
        (List.mem (Snapshot.filename ~seq) snaps);
      Alcotest.(check bool) "at most fulls_kept fulls" true
        (List.length snaps <= Schedule.fulls_kept)
    done
  in
  let wal, _ = Wal.open_ ~config:wal_config storage in
  let engine = Engine.create () in
  run wal engine (Schedule.create storage wal ~wal_bytes:1 ~snapshot_seq:0)
    1 restart_at;
  let recover () =
    Recovery.run ~wal_config
      ~replay:(fun e (r : Wal.record) ->
        ignore (Kronos_service.Server.apply e r.payload))
      storage
  in
  let o = recover () in
  Alcotest.(check int) "restart resolves the schedule's head" restart_at
    o.Recovery.snapshot_seq;
  Alcotest.(check int) "nothing to replay at the head" 0 o.Recovery.replayed;
  run o.Recovery.wal o.Recovery.engine
    (Schedule.create storage o.Recovery.wal ~wal_bytes:1
       ~snapshot_seq:o.Recovery.snapshot_seq)
    (restart_at + 1) total;
  let o = recover () in
  Alcotest.(check int) "final head" total o.Recovery.snapshot_seq;
  Alcotest.(check int) "nothing left to replay" 0 o.Recovery.replayed;
  let reference = Engine.create () in
  Array.iter (fun c -> ignore (Kronos_service.Server.apply reference c)) cmds;
  check_engines_agree "schedule recovery" ids reference o.Recovery.engine

(* A WAL written while the federation layer existed may hold a guarded
   assign (request tag 5, now retired).  Recovery replays it as a
   malformed command: the replica rejects and counts it, none of its
   edges land, and the records after it still replay. *)
let test_retired_guarded_assign_replay () =
  let e n = Event_id.make ~slot:n ~gen:0 in
  let cmds =
    List.init 4 (fun _ -> Message.encode_request Message.Create_event)
    @ [
        Test_wire.retired_guarded_assign;
        Message.encode_request
          (Message.Assign_order [ Order.must_before (e 1) (e 2) ]);
      ]
  in
  let _dir, storage = mem () in
  let wal, _ = Wal.open_ storage in
  List.iteri
    (fun i cmd ->
      Wal.append wal ~seq:(i + 1)
        ~payload:
          (Kronos_replication.Chain.encode_entry_payload ~client:2000
             ~req_id:(i + 1) ~cmd))
    cmds;
  Wal.sync wal;
  let malformed =
    Kronos_metrics.counter (Kronos_metrics.scope "server") "malformed_requests_total"
  in
  let was_enabled = Kronos_metrics.enabled () in
  Kronos_metrics.set_enabled true;
  let before = Kronos_metrics.Counter.value malformed in
  let net = Kronos_transport.Sim_transport.of_net (Net.create (Sim.create ())) in
  let durability =
    Kronos_service.Server.durability ~storage_of:(fun _ -> storage) ()
  in
  let _replica, engine =
    Kronos_service.Server.start_node ~net ~addr:1 ~durability ()
  in
  let counted = Kronos_metrics.Counter.value malformed - before in
  Kronos_metrics.set_enabled was_enabled;
  Alcotest.(check int) "retired record counted as malformed" 1 counted;
  let reference = Engine.create () in
  List.iter (fun c -> ignore (Kronos_service.Server.apply reference c)) cmds;
  check_engines_agree "retired record replay"
    (Array.init 4 e) reference !engine;
  let relation a b =
    match Engine.query_order !engine [ (a, b) ] with
    | Ok [ r ] -> r
    | _ -> Alcotest.fail "query refused"
  in
  Alcotest.(check bool) "guarded edge not applied" true
    (relation (e 2) (e 3) = Order.Concurrent);
  Alcotest.(check bool) "later record replayed" true
    (relation (e 1) (e 2) = Order.Before)

(* The snapshot window is the one durability setting; a window below one
   byte is refused where the configuration is built. *)
let test_durability_window_validated () =
  let storage_of _ = snd (mem ()) in
  List.iter
    (fun w ->
      Alcotest.check_raises
        (Printf.sprintf "window %d refused" w)
        (Invalid_argument "Server.durability: wal_bytes_per_snapshot")
        (fun () ->
          ignore
            (Kronos_service.Server.durability ~wal_bytes_per_snapshot:w
               ~storage_of ())))
    [ 0; -1 ];
  let d = Kronos_service.Server.durability ~storage_of () in
  Alcotest.(check int) "default window" Schedule.default_wal_bytes
    d.Kronos_service.Server.wal_bytes_per_snapshot;
  Alcotest.(check int) "default is 4 MiB" (4 * 1024 * 1024)
    Schedule.default_wal_bytes

let suites =
  [ ( "durability",
      [
        Alcotest.test_case "crc32 known answers" `Quick test_crc32_known_answers;
        QCheck_alcotest.to_alcotest prop_crc32_matches_bitwise;
        Alcotest.test_case "wal round trip" `Quick test_wal_round_trip;
        Alcotest.test_case "wal crash drops unsynced" `Quick
          test_wal_crash_drops_unsynced;
        Alcotest.test_case "wal torn tail truncated" `Quick
          test_wal_torn_tail_truncated;
        Alcotest.test_case "wal rotation and truncation" `Quick
          test_wal_rotation_and_truncation;
        Alcotest.test_case "wal truncated past its end" `Quick
          test_wal_truncated_past_its_end;
        Alcotest.test_case "wal sync policies" `Quick test_wal_sync_policies;
        QCheck_alcotest.to_alcotest prop_snapshot_round_trip;
        Alcotest.test_case "snapshot v5 chains" `Quick test_snapshot_v5_chains;
        Alcotest.test_case "snapshot chain range" `Quick test_snapshot_chain_range;
        Alcotest.test_case "snapshot files" `Quick test_snapshot_files;
        Alcotest.test_case "recovery at every prefix" `Quick
          test_recovery_every_prefix;
        Alcotest.test_case "recovery after crash" `Quick
          test_recovery_after_crash_loses_only_unsynced;
        Alcotest.test_case "snapshot version matrix" `Quick
          test_snapshot_version_matrix;
        Alcotest.test_case "snapshot is_valid checks the body in place" `Quick
          test_snapshot_is_valid;
        Alcotest.test_case "retired-version head stops recovery" `Quick
          test_retired_version_stops_recovery;
        Alcotest.test_case "delta file stops recovery" `Quick
          test_delta_file_stops_recovery;
        Alcotest.test_case "snapshot + wal tail recovery" `Quick
          test_snapshot_wal_tail_recovery;
        Alcotest.test_case "torn snapshot write + compaction" `Quick
          test_torn_snapshot_write_compaction;
        Alcotest.test_case "compact retires temporaries" `Quick
          test_compact_retires_temporaries;
        Alcotest.test_case "schedule cadence" `Quick test_schedule_cadence;
        Alcotest.test_case "durability window validated" `Quick
          test_durability_window_validated;
      ] );
    ( "durability.retired",
      [
        Alcotest.test_case "guarded assign in the WAL replays as rejected"
          `Quick test_retired_guarded_assign_replay;
      ] );
  ]
