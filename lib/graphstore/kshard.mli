(** KronoGraph shard server (Section 3.2).

    Each vertex carries a version list of (event, mutation) entries kept in
    Kronos order, plus the event of the most recent operation that touched
    it.  An incoming operation is ordered after each touched vertex's most
    recent event with a {e single batched} [prefer] call; pairs whose order
    the shard's client-side cache already knows are resolved locally with no
    Kronos traffic (the paper's batching + caching, which left only 13.4 %
    of operations requiring a traversal in its Twitter experiment).

    Reversals are handled per the paper:
    - a reversed {e update} is inserted at its sorted position in the
      version list;
    - a reversed {e query} masks the version entries ordered after it,
      reconstructing the older graph it logically ran against.

    Operations are serialized {e per vertex} (arrival order), but operations
    on disjoint vertex sets are processed concurrently, so one outstanding
    Kronos batch never stalls the whole shard. *)

open Kronos

type t

val create :
  net:G_msg.msg Kronos_simnet.Net.t ->
  addr:Kronos_simnet.Net.addr ->
  kronos:Kronos_service.Client.t ->
  t
(** [kronos] must have caching enabled; the shard's fast path depends on
    it.  Capacity benchmarks model the shard's CPU on the network
    ({!Kronos_simnet.Net.set_service} with {!G_msg.service}). *)

val addr : t -> Kronos_simnet.Net.addr

val preload : t -> vertex:int -> neighbors:int list -> event:Kronos.Event_id.t -> unit
(** Bulk-load adjacency directly (benchmark setup): the entries are recorded
    under [event], which becomes the vertex's most recent operation.  Not
    part of the online protocol. *)

(** {1 Inspection for tests} *)

val adjacency_now : t -> int -> int list
(** Current adjacency of a vertex (all versions applied), sorted. *)

val version_events : t -> int -> Event_id.t list
(** Events of the vertex's version entries, oldest first. *)

(** {1 Statistics} *)

val operations : t -> int
(** Operations processed (updates + queries). *)

val vertex_touches : t -> int
(** Total vertex-level orderings performed (a query over k vertices counts
    k) — the denominator of the paper's "operations requiring a Kronos
    traversal" metric. *)

val kronos_batches : t -> int
(** assign_order batches actually sent to Kronos. *)

val fast_path_ops : t -> int
(** Operations resolved entirely from the order cache (no Kronos call). *)

val reversals : t -> int
