(** Crash-restart recovery: rebuild an engine from local storage.

    [run] opens the directory, restores the newest valid full snapshot
    (DESIGN.md §16) or starts from an empty engine, then replays the WAL
    records that extend it: the contiguous run of sequence numbers
    starting just after the snapshot.  Records at or below the snapshot's
    sequence number are skipped; a gap ends replay (everything past a gap
    is unusable, and cannot occur unless storage was tampered with, since
    segments are only truncated below the snapshot).

    Recovery observability: [recovery.replay_ms] / [recovery.recovery_ms]
    gauges and the [recovery.wal_bytes_replayed_total] counter are updated
    on every run and surfaced through [Get_stats] / [kronos_cli stats]. *)

open Kronos

type outcome = {
  engine : Engine.t;
  wal : Wal.t;  (** open, positioned to append at [next_seq] *)
  snapshot_seq : int;  (** 0 when no snapshot was found *)
  next_seq : int;  (** 1 + the last recovered sequence number *)
  replayed : int;  (** WAL records replayed on top of the snapshot *)
  replay_ms : float;  (** wall time spent replaying the WAL tail *)
  recovery_ms : float;  (** total wall time: scan + snapshot + replay *)
  wal_bytes_replayed : int;  (** framed bytes of the replayed records *)
}

val run :
  ?wal_config:Wal.config ->
  replay:(Engine.t -> Wal.record -> unit) ->
  Storage.t ->
  outcome
(** [replay] applies one logged command to the engine; the caller owns the
    payload format (the service layer stores wire-encoded commands plus
    client bookkeeping).
    @raise Snapshot.Unsupported_version when the directory holds a full
    snapshot in another format version or a [delta-*.delta] file of an
    earlier build (see {!Snapshot.load_chain}). *)
