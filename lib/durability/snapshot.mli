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

(** {1 Snapshot files} *)

val filename : seq:int -> string

val write : Storage.t -> seq:int -> Engine.t -> unit
(** Capture [engine] and persist it atomically as the snapshot for [seq]. *)

val write_bytes : Storage.t -> seq:int -> string -> unit
(** Persist already-encoded snapshot bytes (state transfer receive path). *)

(** {1 Incremental snapshots (DESIGN.md §16)}

    A delta file ([delta-<seq>.delta]) holds an {!Kronos.Engine.delta}
    against the snapshot state at [base_seq] — itself a full file or
    another delta, forming a chain terminating in a full snapshot.
    Recovery resolves the newest head whose entire chain is intact and
    falls back to older heads otherwise, exactly as it skips corrupt full
    snapshots.  Every resolver below lets {!Unsupported_version}
    propagate from any full file it reads. *)

val encode_delta : base_seq:int -> seq:int -> Engine.delta -> string

val decode_delta : string -> int * int * Engine.delta
(** [(base_seq, seq, delta)].
    @raise Kronos_wire.Codec.Decode_error on a malformed file. *)

val delta_filename : seq:int -> string

val write_delta : Storage.t -> base_seq:int -> seq:int -> Engine.t -> unit
(** Capture the engine's dirty-slot delta and persist it atomically
    (tmp → sync → rename) as the delta for [seq] against [base_seq].
    Does {e not} clear the engine's dirty set — call
    {!Kronos.Engine.snapshot_written} after this returns. *)

val load_chain :
  ?config:Engine.config -> Storage.t -> (int * Engine.t * int) option
(** Resolve and restore the newest recoverable snapshot state:
    [(seq, engine, deltas_applied)].  Tries every candidate head newest
    first; a head resolves when its full file is valid or its delta chain
    composes onto a valid full.  [deltas_applied = 0] means a full
    snapshot was used directly. *)

val load_chain_bytes : Storage.t -> (int * string) option
(** The newest recoverable state as {e full-format} snapshot bytes (state
    transfer send path): a valid full file ships as-is, a delta head is
    composed and re-encoded, so the wire format never exposes deltas. *)

val compact : Storage.t -> keep:int -> int
(** Retire snapshot files made redundant by newer durable state: deltas
    at or below the newest valid full snapshot, valid fulls beyond the
    newest [keep] (min 1), corrupt fulls, and the stray [snap-*.tmp] /
    [delta-*.tmp] files of interrupted writes.  Call {e after} the
    covering snapshot is durably written — unlinking is idempotent and recovery
    ignores missing files, so a crash at any point mid-compact is safe.
    Rewrites the {!read_manifest} audit record.  Returns the number of
    files removed (counted in [durability.snapshots_retired_total]). *)

val read_manifest : Storage.t -> (int * string list) option
(** The compaction audit record: [(head seq, kept file names)] as of the
    last {!compact}.  A hint for operators and checkers only — recovery
    rescans the directory and never trusts the manifest. *)
