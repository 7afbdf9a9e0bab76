(** The one snapshot schedule of a durable replica (DESIGN.md §16).

    A snapshot is due once [wal_bytes] of WAL have accrued since the last
    one, so the trigger tracks write volume, not command count.  Every
    snapshot is a full {!Snapshot} file.  After each write the covered WAL
    segments are retired and {!Snapshot.compact} retires the covered
    snapshot files, keeping {!fulls_kept} full snapshots.  Restart
    therefore restores one full snapshot and replays at most one window
    of WAL, however long the history. *)

open Kronos

val fulls_kept : int
(** Full snapshots {!Snapshot.compact} keeps as fallbacks (2). *)

val default_wal_bytes : int
(** The default window: 4 MiB of WAL per snapshot. *)

type t

val create : Storage.t -> Wal.t -> wal_bytes:int -> snapshot_seq:int -> t
(** A schedule over [storage] and its open [wal], whose newest snapshot
    state is at [snapshot_seq] (0 for none) — as {!Recovery.run} left
    them. *)

val commit : t -> Engine.t -> upto:int -> unit
(** Group-commit the WAL ({!Wal.flush}), then, when a window of WAL bytes
    has accrued since the last snapshot and [upto] is past it, snapshot
    [engine] at [upto], then {!Wal.truncate_before} and
    {!Snapshot.compact}.  [engine] must hold exactly the commands up to
    [upto]. *)

val install : t -> seq:int -> string -> unit
(** Persist full-format snapshot bytes received by state transfer as the
    new recovery baseline at [seq] and retire the WAL below it. *)

val last_snapshot : t -> int
(** Sequence number of the newest snapshot written, installed or
    recovered; 0 for none. *)
