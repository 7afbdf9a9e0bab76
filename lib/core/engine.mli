(** The Kronos API (Table 1 of the paper) over the event dependency graph.

    All operations are deterministic, which is what lets the service layer
    replicate an engine with a replicated state machine (Section 2.4). *)

type t

type config = {
  initial_capacity : int;  (** starting number of vertex slots (doubles) *)
  digests : bool;
      (** maintain hash-chained event commitments (DESIGN.md §13) so
          happens-before answers can be proved; [true] by default *)
  max_chains : int;
      (** cap on the graph's chain-decomposition reachability index
          (DESIGN.md §15); 64 by default, 0 disables it, at most [2^22]
          ({!create} raises [Invalid_argument] above that: a label entry
          packs the chain id into 22 bits beside a 40-bit position).
          An edge whose target finds no chain under the cap drops the
          whole index ({!labels_live} turns false): from then on every
          query the ranks do not refute runs the BFS and counts as
          {!label_misses}, until the graph's edge count returns to 0. *)
}

val default_config : config

val create : ?config:config -> unit -> t

(** {1 Event management} *)

val create_event : t -> Event_id.t
(** [create_event g] makes a fresh event with one reference held by the
    caller and returns its unique identifier. *)

val acquire_ref : t -> Event_id.t -> (unit, Order.assign_error) result

val release_ref : t -> Event_id.t -> (int, Order.assign_error) result
(** On success, the number of events garbage-collected by this release
    (strict, topological; see Section 2.3). *)

(** {1 Ordering} *)

val query_order :
  t -> (Event_id.t * Event_id.t) list ->
  (Order.relation list, Order.assign_error) result
(** Relation of each pair, in request order.  Fails atomically with
    [Unknown_event] if any argument is stale. *)

val assign_order :
  t -> Order.spec list -> (Order.outcome list, Order.assign_error) result
(** Atomically apply a batch of ordering constraints (Section 2.2), built
    with the {!Order.must_before} family of constructors.  Each pair's
    edge is staged ({!Graph.try_add_edge}), its cycle check riding the
    graph's topological rank index: constraints that respect the committed
    order — the common case — are staged in O(1), and the others pay one
    search bounded to the affected rank interval.  The batch's edges are
    sealed ({!Graph.seal}: commitment links and chain labels) only once it
    commits; an abort pops them ({!Graph.abort}) before any commitment or
    label has seen them.  Semantics:

    - all [Must] pairs are applied before any [Prefer] pair, so a prefer can
      never block a satisfiable must;
    - if a [Must] pair contradicts the committed order (or relates an event
      to itself), the whole batch aborts with no side effects;
    - a [Prefer] pair contradicted by the committed order is reported as
      [Reversed]; a prefer of an event with itself is a no-op ([Already]);
    - a pair whose order is already implied adds no edge ([Already]).

    Outcomes are returned in request order. *)

(** {1 Serialization} *)

(** Full logical state of an engine: the graph plus the API counters, so a
    restored replica reports the same {!stats} as one that never crashed.
    The encoding to bytes lives in the durability library; this type is the
    stable in-memory contract between the two. *)
type snapshot = {
  snap_graph : Graph.snapshot;
  snap_creates : int;
  snap_queries : int;
  snap_assigns : int;
  snap_aborted_batches : int;
  snap_reversals : int;
  snap_collected : int;
}

val to_snapshot : t -> snapshot

val of_snapshot : snapshot -> t
(** Rebuild an engine that behaves identically to the captured one under
    any subsequent command sequence, with {!default_config}'s digests and
    chain cap.
    @raise Invalid_argument on an internally inconsistent snapshot. *)

(** {1 Read views}

    The engine's entire read path goes through {!View.t} (DESIGN.md §14).
    A view is a graph store ({!Graph.Frozen.g}): either the engine's own
    — read in place, zero publication cost, valid only on the domain that
    owns the engine — or a frozen, epoch-stamped copy that nobody mutates
    and any domain may query concurrently without synchronization.  Every
    read below is the same function on either.  Single-threaded callers
    use {!current_view}; the multicore query plane calls {!publish} from
    the writer domain and hands the frozen view to reader domains. *)

module View : sig
  type t

  val epoch : t -> int64
  (** The graph mutation version this view reflects.  Epochs are
      monotonic: a higher epoch sees a superset of the committed order
      (monotonicity, paper §2.5), which is what makes answering from a
      slightly stale view safe. *)

  val is_live : t -> Event_id.t -> bool
  val rank : t -> Event_id.t -> int option

  val query :
    t -> Event_id.t -> Event_id.t -> (Order.relation, Event_id.t) result
  (** Relation of one pair ({!Graph.query} semantics).  On a frozen view
      this reads only values nobody mutates, with per-domain scratch: no
      locks, no counters, no allocation once warm. *)

  val query_order :
    t ->
    (Event_id.t * Event_id.t) list ->
    (Order.relation list, Order.assign_error) result
  (** Batch form with the engine's atomic staleness contract.  On a live
      view this is exactly {!Engine.query_order} (counters included); on a
      frozen view it updates nothing. *)

  val label_reachable : t -> Event_id.t -> Event_id.t -> bool option
  (** Index-only reachability: [Some ans] when the rank or chain-label
      compare decides ({!Graph.label_reachable}), [None] when only a BFS
      could.  Counter-free; the certify prover uses it to skip
      predecessors that provably cannot sit on a source path. *)

  val digests_enabled : t -> bool
  val commitment : t -> Event_id.t -> string option
  val chain_length : t -> Event_id.t -> int option
  val chain : t -> Event_id.t -> Graph.Chain.t option
  (** Commitment-chain accessors, the certify prover's working set; all
      answer [None] when digests are disabled.  A chain never changes once
      returned, from either kind of view. *)

  val live_events : t -> int
  val edges : t -> int
end

val current_view : t -> View.t
(** A live view of this engine: always reflects the latest state, costs
    nothing to obtain, and must only be used from the domain that owns
    the engine. *)

val publish : t -> View.t
(** Freeze the current state into an immutable view ({!Graph.freeze}:
    incremental, sharing clean slots with the previous publication) and
    return it.  Safe to hand to other domains; returns the cached view
    unchanged when no mutation happened since the last call. *)

val epoch : t -> int64
(** Current mutation version — the epoch the next {!publish} would
    carry, and the epoch stamped on write replies so clients can demand
    read-your-writes ([`At_least]) from the query plane. *)

(** {1 Introspection} *)

val graph : t -> Graph.t
(** The underlying dependency graph.  {b Write-side use only}
    (durability): query paths must go through {!View}. *)

val live_events : t -> int
val edges : t -> int
val memory_bytes : t -> int

val commitment : t -> Event_id.t -> string option
(** The event's commitment-chain head ({!Graph.commitment}); [None] when
    the identifier is stale or the engine runs with [digests = false]. *)

val label_hits : t -> int
(** Reachability probes answered by the chain-label compare alone (surfaced
    to the metrics plane as [engine.label_hits_total]). *)

val label_misses : t -> int
(** Probes that fell back to the BFS because labels were not live
    ([engine.label_misses_total]).  Labels drop when the workload's
    breadth saturates the chain cap ({!labels_live}); raising
    {!config.max_chains} keeps them on wider graphs. *)

val label_rebuilds : t -> int
(** Full deterministic label recomputations ([engine.label_rebuilds_total]):
    one per snapshot restore that keeps labels. *)

val chain_count : t -> int
(** Chains currently holding live events (gauge [engine.graph_chains]). *)

val labels_live : t -> bool
(** Whether queries are answered by the chain labels (gauge
    [engine.labels_live]): {!Graph.labels_live}. *)

type stats = {
  creates : int;
  queries : int;       (** individual pairs queried *)
  assigns : int;       (** individual pairs assigned *)
  aborted_batches : int;
  reversals : int;
  collected : int;     (** events reclaimed by GC *)
  traversals : int;    (** BFS runs *)
  visited : int;       (** total vertices visited by BFS *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
