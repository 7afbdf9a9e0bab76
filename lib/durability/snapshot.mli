(** Binary snapshots of full engine state, in one format.

    A snapshot file ([snap-<seq>.snap]) holds the engine as of sequence
    number [seq]: magic, the format version, a CRC-32 of the body, then the
    {!Kronos.Engine.snapshot} encoded with the wire codec.  Files are
    written to a temporary name, synced, then renamed, so a crash mid-write
    never leaves a readable-but-bogus newest snapshot; readers skip corrupt
    files (bad magic, checksum mismatch, malformed body) and fall back to
    the next older one.

    This build reads exactly one format, {!version}.  An intact file under
    any other version number — a retired format or one from a newer build
    — is never skipped: it raises {!Unsupported_version}, so recovery
    stops instead of silently restoring older state over a log that no
    longer covers the gap. *)

open Kronos

val version : int
(** The snapshot format version this build writes and reads (5). *)

exception Unsupported_version of { file : string; version : int }
(** A checksum-valid snapshot whose format [version] is not {!version}.
    [file] is the storage file name, or ["(in-memory snapshot)"] for
    {!decode}. *)

(** {1 Pure encoding} *)

val encode : seq:int -> Engine.snapshot -> string

val decode : string -> int * Engine.snapshot
(** @raise Kronos_wire.Codec.Decode_error on bad magic, checksum mismatch
    or malformed body.
    @raise Unsupported_version on an intact body under another version. *)

val is_valid : file:string -> string -> bool
(** Whether [data] has the snapshot magic and a body matching its
    checksum — the check compaction and {!load_chain_bytes} make before
    trusting a file.  The body is checksummed in place, without a copy.
    @raise Unsupported_version on an intact body under another version
    ([file] names it). *)

(** {1 Snapshot files} *)

val filename : seq:int -> string

val write : Storage.t -> seq:int -> Engine.t -> unit
(** Capture [engine] and persist it atomically as the snapshot for [seq]. *)

val write_bytes : Storage.t -> seq:int -> string -> unit
(** Persist already-encoded snapshot bytes (state transfer receive path). *)

(** {1 Recovery and state transfer}

    Every snapshot is a full file: recovery restores the newest valid one
    and replays the WAL above it (DESIGN.md §16).  Earlier builds also
    wrote [delta-<seq>.delta] files chained onto a full; their WAL was
    truncated past that full, so a directory still holding one raises
    {!Unsupported_version} (naming the delta file) instead of recovering
    older state. *)

val load_chain : Storage.t -> (int * Engine.t) option
(** Restore the newest valid full snapshot: [(seq, engine)], skipping
    torn or corrupt files newest first; [None] when none is valid.
    @raise Unsupported_version on a full file in another format version
    or on a [delta-*.delta] file. *)

val load_chain_bytes : Storage.t -> (int * string) option
(** The newest checksum-valid full snapshot file, as its bytes (state
    transfer send path: it ships as-is).
    @raise Unsupported_version on a full file in another format version. *)

val compact : Storage.t -> keep:int -> int
(** Retire snapshot files made redundant by newer durable state: valid
    fulls beyond the newest [keep] (min 1), corrupt fulls, and the stray
    [snap-*.tmp] files of interrupted writes.  Call {e after} the
    covering snapshot is durably written — unlinking is idempotent and recovery
    ignores missing files, so a crash at any point mid-compact is safe.
    Rewrites the {!read_manifest} audit record.  Returns the number of
    files removed (counted in [durability.snapshots_retired_total]). *)

val read_manifest : Storage.t -> (int * string list) option
(** The compaction audit record: [(head seq, kept file names)] as of the
    last {!compact}.  A hint for operators and checkers only — recovery
    rescans the directory and never trusts the manifest. *)
