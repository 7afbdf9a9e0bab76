(** The one snapshot schedule of a durable replica (DESIGN.md §16).

    A snapshot is due once [wal_bytes] of WAL have accrued since the last
    one, so the trigger tracks write volume, not command count.  Between
    full snapshots the schedule writes {e deltas} — only the slots dirtied
    since the previous capture — and every {!max_delta_chain} deltas (and
    always first after a recovery or a state-transfer install) a full
    snapshot re-anchors the chain.  After each write the covered WAL
    segments are retired and {!Snapshot.compact} retires the covered
    snapshot files, keeping {!fulls_kept} full snapshots.  Restart
    therefore replays at most one window of WAL plus at most
    {!max_delta_chain} deltas, however long the history. *)

open Kronos

val max_delta_chain : int
(** Deltas written between two full snapshots (8). *)

val fulls_kept : int
(** Full snapshots {!Snapshot.compact} keeps as fallbacks (2). *)

val default_wal_bytes : int
(** The default window: 4 MiB of WAL per snapshot. *)

type t

val create : Storage.t -> Wal.t -> wal_bytes:int -> snapshot_seq:int -> t
(** A schedule over [storage] and its open [wal], whose newest snapshot
    state is at [snapshot_seq] (0 for none) — as {!Recovery.run} left
    them.  The first snapshot it writes is full: a delta may only base on
    a capture this process made after the engine's dirty set was last
    cleared. *)

val commit : t -> Engine.t -> upto:int -> unit
(** Group-commit the WAL ({!Wal.flush}), then, when a window of WAL bytes
    has accrued since the last snapshot and [upto] is past it, snapshot
    [engine] at [upto]: a delta, or a full re-anchor; then
    {!Kronos.Engine.snapshot_written}, {!Wal.truncate_before} and
    {!Snapshot.compact}.  [engine] must hold exactly the commands up to
    [upto]. *)

val install : t -> seq:int -> string -> unit
(** Persist full-format snapshot bytes received by state transfer as the
    new recovery baseline at [seq] and retire the WAL below it.  The next
    snapshot is full. *)

val last_snapshot : t -> int
(** Sequence number of the newest snapshot written, installed or
    recovered; 0 for none. *)
