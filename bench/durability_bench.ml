(* Durability microbenchmarks (not a paper figure — the paper's prototype
   keeps state in memory only; this grounds the cost of adding persistence).

   Three questions:
   - WAL append throughput: records/s through the group-commit path, for the
     in-memory backend (pure framing + CRC cost) and real files, across the
     fsync policies (the classic durability/latency trade);
   - snapshot cost: encode + write time and snapshot size as the DAG grows;
   - recovery time: restoring an engine from snapshot + WAL suffix vs the
     size of the DAG underneath. *)

open Kronos
open Kronos_simnet
module Storage = Kronos_durability.Storage
module Wal = Kronos_durability.Wal
module Snapshot = Kronos_durability.Snapshot
module Recovery = Kronos_durability.Recovery
module Graph_gen = Kronos_workload.Graph_gen
module Message = Kronos_wire.Message

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "kronos-bench-%d" (Unix.getpid ()))
  in
  let rec clean path =
    if Sys.file_exists path then begin
      if Sys.is_directory path then begin
        Array.iter (fun n -> clean (Filename.concat path n)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path
    end
  in
  clean dir;
  Fun.protect ~finally:(fun () -> clean dir) (fun () -> f dir)

let policy_name = function
  | Wal.Always -> "always"
  | Wal.Every_n n -> Printf.sprintf "every %d" n
  | Wal.Never -> "never"

(* One flush per [batch] appends: the group-commit shape the chain produces
   when [batch] commands arrive in one delivered message. *)
let wal_append_throughput storage ~records ~batch ~sync =
  let config = { Wal.segment_bytes = 4 * 1024 * 1024; sync } in
  let wal, _ = Wal.open_ ~config storage in
  let payload = String.make 64 'k' in
  let _, elapsed =
    Bench_util.time_s (fun () ->
        for seq = 1 to records do
          Wal.append wal ~seq ~payload;
          if seq mod batch = 0 then Wal.flush wal
        done;
        Wal.sync wal)
  in
  (float_of_int records /. elapsed, Wal.sync_count wal)

(* Engine pre-loaded with an Erdős–Rényi DAG of [n] vertices, [2n] edges. *)
let loaded_engine ~n =
  let rng = Rng.create ~seed:42L in
  let g = Graph_gen.erdos_renyi_gnm ~rng ~n ~m:(2 * n) in
  let engine = Engine.create () in
  let ids = Array.init n (fun _ -> Engine.create_event engine) in
  Array.iter
    (fun (u, v) ->
      let u, v = (min u v, max u v) in
      ignore
        (Engine.assign_order engine
           [ Order.must_before ids.(u) ids.(v) ]))
    g.Graph_gen.edges;
  (engine, ids)

let run () =
  Bench_util.section "Durability: WAL throughput, snapshot cost, recovery time";
  Bench_util.note
    "  (no paper counterpart: the paper's prototype is memory-only)";

  (* --- WAL append throughput -------------------------------------- *)
  let records = Bench_util.scaled 20_000 200_000 in
  let batches = [ 1; 16 ] in
  let policies = [ Wal.Always; Wal.Every_n 64; Wal.Never ] in
  Printf.printf "\n  WAL append throughput (%d records, 64 B payloads)\n" records;
  Printf.printf "  %8s %10s %6s %16s %8s\n%!" "backend" "sync" "batch"
    "throughput" "fsyncs";
  List.iter
    (fun sync ->
      List.iter
        (fun batch ->
          let mem_tput, mem_syncs =
            wal_append_throughput
              (Storage.Memory.storage (Storage.Memory.create ()))
              ~records ~batch ~sync
          in
          Printf.printf "  %8s %10s %6d %16s %8d\n%!" "memory"
            (policy_name sync) batch
            (Bench_util.pp_ops mem_tput)
            mem_syncs;
          with_tmp_dir (fun dir ->
              let file_tput, file_syncs =
                wal_append_throughput (Storage.files ~dir) ~records ~batch ~sync
              in
              Printf.printf "  %8s %10s %6d %16s %8d\n%!" "file"
                (policy_name sync) batch
                (Bench_util.pp_ops file_tput)
                file_syncs))
        batches)
    policies;
  Bench_util.ours
    "group commit and relaxed fsync each buy orders of magnitude on real files";

  (* --- snapshot + recovery vs DAG size ----------------------------- *)
  let sizes =
    if !Bench_util.full_scale then [ 1_000; 10_000; 100_000 ]
    else [ 1_000; 10_000 ]
  in
  Printf.printf "\n  Snapshot and recovery vs DAG size (n vertices, 2n edges)\n";
  Printf.printf "  %10s %12s %12s %12s %14s\n%!" "vertices" "snap bytes"
    "snap write" "recovery" "+1k wal recs";
  List.iter
    (fun n ->
      let engine, ids = loaded_engine ~n in
      let dir = Storage.Memory.create () in
      let storage = Storage.Memory.storage dir in
      let encoded = Snapshot.encode ~seq:1 (Engine.to_snapshot engine) in
      let _, write_s =
        Bench_util.time_s (fun () ->
            Snapshot.write storage ~seq:1 engine)
      in
      (* recovery from the snapshot alone *)
      let _, recover_s =
        Bench_util.time_s (fun () ->
            ignore
              (Recovery.run ~replay:(fun _ _ -> ()) storage))
      in
      (* recovery with a 1000-record WAL suffix of real commands on top *)
      let wal, _ = Wal.open_ storage in
      let replayable = 1_000 in
      for i = 1 to replayable do
        let u = ids.(i mod n) and v = ids.((i * 7 + 1) mod n) in
        Wal.append wal ~seq:(i + 1)
          ~payload:
            (Message.encode_request
               (Message.Query_order { min_epoch = 0L; pairs = [ (u, v) ] }))
      done;
      Wal.sync wal;
      let _, recover_wal_s =
        Bench_util.time_s (fun () ->
            ignore
              (Recovery.run
                 ~replay:(fun e (r : Wal.record) ->
                   ignore (Kronos_service.Server.apply e r.payload))
                 storage))
      in
      Printf.printf "  %10d %12d %12s %12s %14s\n%!" n (String.length encoded)
        (Bench_util.pp_ns (write_s *. 1e9))
        (Bench_util.pp_ns (recover_s *. 1e9))
        (Bench_util.pp_ns (recover_wal_s *. 1e9)))
    sizes;
  Bench_util.ours
    "recovery is snapshot-decode bound; WAL replay adds linear command cost"
