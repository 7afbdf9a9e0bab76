(** Append-only write-ahead log of applied commands over a {!Storage}
    directory.

    Each record is framed as

    {v u32 length | u32 crc32 | i64 seq | payload bytes v}

    (big-endian; [length] covers seq + payload, [crc32] guards the same
    range), so a torn tail — a crash mid-append — is detected by length or
    checksum and truncated away on the next open.  Appends are buffered and
    written with a single storage append per {!flush} (group commit); the
    {!sync_policy} decides when the file is additionally fsynced.  The log
    rotates to a new segment file ([wal-<firstseq>.log]) once the active
    segment exceeds [segment_bytes]; whole segments below a snapshot's
    sequence number are deleted by {!truncate_before}. *)

type sync_policy =
  | Always  (** fsync every group commit: no applied command is ever lost *)
  | Every_n of int  (** fsync once per [n] records: bounded loss window *)
  | Never  (** leave durability to the OS page cache: fastest, riskiest *)

type config = { segment_bytes : int; sync : sync_policy }

val default_config : config
(** 1 MiB segments, [Always]. *)

type record = { seq : int; payload : string }

type t

val open_ : ?config:config -> Storage.t -> t * record list
(** Open (or create) the log: scan existing segments in order, truncate the
    first torn or corrupt record and drop any later segments, and return
    the surviving records in append order together with a handle positioned
    to append after them. *)

val append : t -> seq:int -> payload:string -> unit
(** Buffer a record.  Sequence numbers must be appended in increasing
    order.  Buffered records are not readable or durable until {!flush}. *)

val flush : t -> unit
(** Group-commit every buffered record with one storage append, fsyncing
    as the sync policy dictates. *)

val sync : t -> unit
(** {!flush}, then force an fsync regardless of policy. *)

val read_from : t -> since:int -> record list option
(** All records with [seq > since], in order ([flush] is implied).
    [None] when truncation has removed part of that range — the caller must
    fall back to shipping a snapshot. *)

val truncate_before : t -> seq:int -> unit
(** Delete whole segments every record of which has [seq' <= seq]; the
    active segment is always kept.  [seq] is covered by a snapshot, so
    {!last_seq} rises to at least [seq]: later appends continue above it,
    and {!read_from} answers [None] for ranges starting below it.  Retired
    segments are counted in [durability.segments_retired_total]. *)

val last_seq : t -> int
(** Highest sequence number appended, recovered or truncated below
    ({!truncate_before}); 0 for an empty log. *)

val segment_files : t -> string list

(** {1 Counters (benchmarks and tests)} *)

val sync_count : t -> int

val logged_bytes : t -> int
(** Cumulative framed bytes accepted by {!append} since this handle was
    opened (header + payload, buffered bytes included).  The snapshot
    schedule's WAL-bytes-since-snapshot trigger ({!Schedule}) diffs this
    counter. *)
