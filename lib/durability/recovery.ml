open Kronos

module M = struct
  let scope = Kronos_metrics.scope "recovery"
  let replay_ms = Kronos_metrics.gauge scope "replay_ms"
  let recovery_ms = Kronos_metrics.gauge scope "recovery_ms"
  let wal_bytes = Kronos_metrics.counter scope "wal_bytes_replayed_total"
end

type outcome = {
  engine : Engine.t;
  wal : Wal.t;
  snapshot_seq : int;
  next_seq : int;
  replayed : int;
  replay_ms : float;
  recovery_ms : float;
  wal_bytes_replayed : int;
}

(* One framed record's on-disk footprint, mirroring [Wal.encode_record]. *)
let record_bytes (r : Wal.record) = 16 + String.length r.payload

let run ?wal_config ~replay storage =
  let t0 = Unix.gettimeofday () in
  let wal, records = Wal.open_ ?config:wal_config storage in
  let snapshot_seq, engine =
    match Snapshot.load_chain storage with
    | Some (seq, engine) -> (seq, engine)
    | None -> (0, Engine.create ())
  in
  (* a snapshot past every logged record (installed by state transfer,
     nothing appended since) still bounds the log from below *)
  if snapshot_seq > Wal.last_seq wal then
    Wal.truncate_before wal ~seq:snapshot_seq;
  let t1 = Unix.gettimeofday () in
  let next = ref (snapshot_seq + 1) in
  let replayed = ref 0 in
  let bytes = ref 0 in
  (try
     List.iter
       (fun (r : Wal.record) ->
         if r.seq >= !next then begin
           if r.seq > !next then raise Exit; (* gap: stop replay *)
           replay engine r;
           bytes := !bytes + record_bytes r;
           incr next;
           incr replayed
         end)
       records
   with Exit -> ());
  let t2 = Unix.gettimeofday () in
  let replay_ms = (t2 -. t1) *. 1000. in
  let recovery_ms = (t2 -. t0) *. 1000. in
  Kronos_metrics.Gauge.set M.replay_ms (int_of_float replay_ms);
  Kronos_metrics.Gauge.set M.recovery_ms (int_of_float recovery_ms);
  Kronos_metrics.Counter.add M.wal_bytes !bytes;
  {
    engine;
    wal;
    snapshot_seq;
    next_seq = !next;
    replayed = !replayed;
    replay_ms;
    recovery_ms;
    wal_bytes_replayed = !bytes;
  }
