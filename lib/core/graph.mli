(** The event dependency graph (Section 2 of the paper).

    Vertices are events; a directed edge [u -> v] records that [u] happens
    before [v].  The structure maintains the paper's two invariants:

    - {b coherency}: the graph is acyclic — an edge is only admitted after a
      check shows it cannot close a cycle;
    - {b monotonicity}: no public operation removes a path; edges disappear
      only when their source vertex is garbage collected, at which point no
      client-visible traversal can start from it.

    Slots are reused after collection; identifiers carry a generation so
    stale identifiers are detected rather than silently re-bound.

    {b Topological rank index.}  Every slot carries a persistent integer
    rank maintained incrementally (Pearce–Kelly / Haeupler–Sen–Tarjan
    style) under the invariant: [u ⇝ v] implies [rank u < rank v].  Edges
    that respect the current order — the common case, since fresh events
    take increasing ranks — cost O(1); an out-of-order edge is checked for
    a cycle by the query search and triggers a relabel confined to the
    affected region.  Queries exploit the contrapositive:
    [rank u >= rank v] refutes [u ⇝ v] in O(1), which eliminates at least
    one BFS direction of every {!query}, and the remaining traversal is a
    bidirectional BFS pruned to the open rank window.  The rank index
    survives slot reuse, garbage collection, {!abort} and snapshot
    round-trips.

    {b Atomic batches.}  An edge goes in in two steps.  {!try_add_edge}
    {e stages} it: the cycle check, any relabel, and the adjacency, so
    every query sees it at once.  {!seal} then commits every staged edge,
    in staging order: it folds each one's commitment link and admits it
    to the chain labels.  {!abort} instead pops the staged edges, and
    since commitments and labels only ever see sealed edges it has
    nothing else to undo.  {!add_edge} is a stage and a seal.

    {b Chain-decomposition labels.}  On top of the ranks, live events are
    partitioned greedily into at most [max_chains] chains (DESIGN.md §15):
    every chain member reaches all later members, and each slot carries an
    exact label — per chain, the lowest position it reaches — so when the
    {e both} the positive and the negative answer of a query are an
    O(#chains) compare.  Labels are maintained incrementally as edges are
    sealed, survive GC slot reuse, and are rebuilt deterministically on
    snapshot restore.  While edges are staged a label answers only
    positively; the rank-pruned BFS answers the rest.  They are kept only
    while every live event with an incoming edge sits on a chain
    ({!labels_live}): the first edge whose target finds no chain under the
    cap drops the whole index, and every later query runs the rank-pruned
    BFS (counted by {!label_miss_count}) until the edge count returns to
    0.

    All memory needed to traverse (one stamped visited-mark array and one
    queue holding both search frontiers) lives in per-domain scratch,
    shared by the live graph and frozen views and grown to the largest
    slot count the domain has searched, so warm queries allocate
    nothing.  The same search checks an out-of-order edge for a cycle. *)

type t

val create :
  ?initial_capacity:int -> ?digests:bool -> ?max_chains:int -> unit -> t
(** [create ()] is an empty graph.  [initial_capacity] (default 1024) sizes
    the initial slot arrays; they double on demand.

    [max_chains] (default 64) caps the chain-decomposition reachability
    index.  Wholly-dead chains are recycled, so the cap bounds concurrent
    breadth, not history.  An edge into an event that finds every chain
    occupied drops the labels (see {!labels_live}).  [0] disables the
    label index entirely: no label or chain array is allocated.  A label
    entry packs the chain id into 22 bits and the position into 40, so
    [max_chains] is at most [2^22], and an event that would take position
    [2^40] on its chain drops the labels like one past a saturated
    cap.

    [digests] (default [true]) maintains hash-chained event commitments
    alongside the graph (DESIGN.md §13): sealing an edge folds one link —
    two SHA-256 compressions, 44 bytes of link store — into the target's
    chain, and an event's {!commitment} is its current chain head.  The
    certify library proves happens-before facts against these commitments.
    Disabling trades verifiability for the fold cost.
    @raise Invalid_argument if [max_chains > 2^22]. *)

(** {1 Events and references} *)

val create_event : t -> Event_id.t
(** Allocate a new event with reference count 1.  The event takes a fresh
    topological rank above every existing one, so ordering events in
    creation order never relabels. *)

val is_live : t -> Event_id.t -> bool

val refcount : t -> Event_id.t -> int option
(** [None] when the identifier does not name a live event. *)

val acquire_ref : t -> Event_id.t -> bool
(** Increment the reference count.  Returns [false] (and does nothing) when
    the identifier is stale. *)

val release_ref : t -> Event_id.t -> int option
(** Decrement the reference count and run strict garbage collection from this
    vertex.  Returns the number of events collected (0 when the event stays),
    or [None] when the identifier is stale or its reference count is already
    zero (no handle to release).

    Collection is topological: a vertex is reclaimed when its reference count
    is zero and every vertex ordered before it has been reclaimed (in-degree
    zero).  Reclaiming it removes its outgoing edges, which may cascade. *)

(** {1 Ordering} *)

val query : t -> Event_id.t -> Event_id.t -> (Order.relation, Event_id.t) result
(** [query g e1 e2] finds the committed relation between two events.  The
    rank comparison answers at least one direction in O(1); the other (if
    compatible) runs one rank-pruned bidirectional BFS.  [Error e] reports a
    stale/unknown identifier. *)

val reachable : t -> Event_id.t -> Event_id.t -> bool
(** [reachable g u v] is [true] iff a happens-before path [u ->* v] exists.
    Returns [false] on stale identifiers and when [u = v]. *)

val label_reachable : t -> Event_id.t -> Event_id.t -> bool option
(** [label_reachable g u v] answers [reachable g u v] from the rank and
    chain-label indexes alone: [Some ans] in O(#chains) worst case, [None]
    when only a traversal could tell (the ranks do not refute it, and
    labels are not live, or edges are staged and no label path exists).
    Touches no counters — safe for provers to consult per candidate edge
    without distorting the query-path hit rate. *)

val rank : t -> Event_id.t -> int option
(** The event's current topological rank ([None] when stale).  Ranks only
    promise [u ⇝ v] implies [rank u < rank v]; they are sparse, change on
    relabels, and carry no meaning beyond the relative order. *)

val try_add_edge : t -> Event_id.t -> Event_id.t -> bool
(** [try_add_edge g u v] stages [u -> v] and returns [true], unless the
    edge would close a cycle ([v ->* u], or [u = v]) in which case the graph
    is left untouched and the result is [false].  The cycle check is O(1)
    when [rank u < rank v]; otherwise it is the query search for [v ->* u]
    over the open rank window (rank v, rank u), O(1) again when [v] has no
    out-edge or [u] no in-edge.
    A staged edge is in the adjacency, so queries and later cycle checks
    see it, and bumps {!version}; its commitment link and chain labels
    wait for {!seal}.  Until then {!create_event}, {!release_ref},
    {!freeze} and {!to_snapshot} raise [Invalid_argument].
    @raise Invalid_argument if either identifier is stale. *)

val seal : t -> unit
(** Commit every staged edge, in staging order: fold its link into the
    target's commitment chain and admit it to the chain labels, exactly
    as if each had been added on its own.  Bumps no {!version}: staging
    did.  A no-op when nothing is staged. *)

val abort : t -> unit
(** Remove every staged edge, newest first, bumping {!version} once per
    edge.  Nothing else needs undoing: commitments and labels never saw
    the edges.  A relabel a staged edge caused is kept — removing an edge
    only removes paths, so the ranks stay a valid order.  A no-op when
    nothing is staged. *)

val add_edge : t -> Event_id.t -> Event_id.t -> unit
(** [add_edge g u v] stages [u -> v] and then seals, together with any
    edge staged before it.  {b Caller must have established} that
    [u <> v] and [v ->* u] does not hold; the rank index re-checks
    cheaply and raises on contract violations instead of corrupting the
    graph.
    @raise Invalid_argument on stale identifiers, self edges, or an edge
    that would close a cycle. *)

(** {1 Commitment chains}

    Maintained when {!create} was given [~digests:true] (the default); all
    accessors below answer [None] otherwise, and on stale identifiers. *)

val digests_enabled : t -> bool

val commitment : t -> Event_id.t -> string option
(** The event's current chain head: its identity digest while no edge has
    been sealed into it, else the head after the newest link.  Stored;
    no hashing. *)

val chain_length : t -> Event_id.t -> int option
(** Number of links folded so far (= edges sealed into the event). *)

(** One event's commitment chain as of the call that returned it.  Link
    [i] (0-based) was recorded when an edge into the event was sealed,
    and stores exactly three fields: the predecessor's identifier, its
    chain position (link count) and its chain head at that moment.  The
    link's partner digest and the heads before the current one are
    recomputed on demand, so only the accessors that say so hash.  A chain
    taken from a frozen view never changes; one taken from the live graph
    must be used before the graph next mutates.  Link indices out of
    [0, length) raise [Invalid_argument]. *)
module Chain : sig
  type t

  val length : t -> int

  val commitment : t -> string
  (** The head after every link: stored, no hashing. *)

  val pred : t -> int -> Event_id.t
  (** Link [i]'s predecessor. *)

  val pred_pos : t -> int -> int
  (** The predecessor's link count when link [i] was folded. *)

  val pred_head : t -> int -> string
  (** The predecessor's chain head when link [i] was folded. *)

  val partner : t -> int -> string
  (** [Chain_digest.link_partner] of link [i]'s predecessor and its head:
      one SHA-256 compression. *)

  val head_at : t -> int -> string
  (** [head_at c n] is the head after the first [n] links
      ([0 <= n <= length]); [head_at c 0] is the identity digest.  The
      current head is stored; an earlier one is refolded from the
      identity digest, two compressions per link. *)
end

val chain : t -> Event_id.t -> Chain.t option
(** The event's chain; [None] when the identifier is stale or digests are
    off. *)

val digest_fold_count : t -> int
(** SHA-256 compressions spent maintaining chains (2 per sealed edge,
    including folds replayed by snapshot restore). *)

(** {1 Serialization} *)

(** A self-contained copy of the graph's logical state, for the durability
    layer.  It captures everything that affects future behaviour:

    - adjacency lists in {e insertion order} (searches visit successors in
      that order, so traversal statistics stay deterministic after a
      restore);
    - the free-slot stack in order (slot reuse by [create_event] is LIFO);
    - per-slot generations, including those of free slots, so restored
      identifiers resolve exactly as before and stale ones stay stale;
    - per-slot topological ranks and the rank allocator, so restored
      engines prune and relabel exactly as the captured one would;
    - traversal counters, so work accounting continues rather than resets.

    Reverse adjacency and live/edge counts are reconstructed. *)

(** The chain-decomposition assignment (snapshot format v5).  Labels are
    deliberately absent: exact labels are a pure function of adjacency +
    chains, recomputed identically on every restore.  A graph whose labels
    are not live writes an empty section: every slot off-chain, no
    chains. *)
type chain_snapshot = {
  cs_chain_of : int array;    (** per slot; -1 = unassigned *)
  cs_chain_pos : int array;   (** per slot; valid when assigned *)
  cs_chain_len : int array;   (** per chain: members ever appended *)
  cs_free_chains : int array; (** wholly-dead chains, stack order *)
}

type snapshot = {
  snap_next_slot : int;          (** high-water mark of ever-used slots *)
  snap_refcount : int array;     (** per slot; -1 marks a free slot *)
  snap_gen : int array;          (** per slot *)
  snap_succ : int array array;   (** successor slots, insertion order *)
  snap_free : int array;         (** free stack, bottom to top *)
  snap_rank : int array;         (** per slot *)
  snap_next_rank : int;          (** rank allocator high-water mark *)
  snap_traversals : int;
  snap_visited_total : int;
  snap_links : (int64 * string * int) array array option;
  (** per-slot commitment-chain links as
      [(predecessor id, predecessor head, predecessor position)] triples;
      partners and heads are refolded on restore.  [None] marks a capture
      of an engine running without digests: restoring it with digests on
      rebuilds the chains deterministically from adjacency — see
      {!of_snapshot}. *)
  snap_version : int;
  (** the graph {!version} at capture time, so the view epoch continues
      monotonically across restarts. *)
  snap_chains : chain_snapshot;  (** the chain-decomposition assignment *)
}

val to_snapshot : t -> snapshot
(** Deep copy; the snapshot does not alias the graph's arrays.
    [snap_links] is [Some _] iff digests are enabled. *)

val of_snapshot :
  ?initial_capacity:int -> ?digests:bool -> ?max_chains:int -> snapshot -> t
(** Rebuild a graph behaviourally identical to the one captured.  The
    options mirror {!create}; capacity is raised to fit the snapshot.
    Labels are recomputed only if [max_chains > 0] and the chain section
    places every live event that has an in-edge (the rule of
    {!labels_live}); otherwise the restored graph has no labels, as a
    capture of a graph that had dropped them must.

    With [~digests:true] (default) and [snap_links = None] — a capture of
    a digest-less engine — commitment chains are rebuilt canonically: live
    slots in (rank, slot) order, one link per stored predecessor in
    reverse-adjacency order, each fold using the predecessor's final head.
    The rebuild is a function of the snapshot's adjacency alone, so every
    restore of the same logical graph agrees on every commitment; it does
    {e not} reproduce chains the engine never folded, whose admission
    interleaving the snapshot never recorded.
    @raise Invalid_argument if the snapshot is internally inconsistent
    (mismatched array lengths, edges to free slots, out-of-range values,
    ranks violating the edge invariant — as any cyclic edge set does — or
    a malformed chain section or chain links; a chain section with more
    than [2^22] chains or a chain length above [2^40] is malformed, since
    label entries could not pack it), or if [max_chains > 2^22]. *)

(** {1 Introspection} *)

val live_count : t -> int
val edge_count : t -> int
val capacity : t -> int

val out_degree : t -> Event_id.t -> int option
val in_degree : t -> Event_id.t -> int option

val successors : t -> Event_id.t -> Event_id.t list
(** Direct happens-after neighbours; [[]] for stale identifiers. *)

val predecessors : t -> Event_id.t -> Event_id.t list
(** Direct happens-before neighbours; [[]] for stale identifiers.  Order is
    unspecified (it is perturbed by collection and snapshot restore). *)

val iter_live : t -> (Event_id.t -> unit) -> unit

val fold_edges : t -> ('a -> Event_id.t -> Event_id.t -> 'a) -> 'a -> 'a

val memory_bytes : t -> int
(** Heap bytes of the graph's structures: every per-slot array, the
    adjacency vectors, label arrays, commitment link stores and heads, each
    with its block header.  The cached frozen view is not included, and a
    label array that several slots share counts once per slot. *)

val traversal_count : t -> int
(** Number of graph traversals performed so far: bidirectional searches,
    for queries and for the cycle check of an edge against the rank order
    alike.  Rank-refuted answers and degree-guarded ones never traverse. *)

val visited_total : t -> int
(** Total vertices visited across all traversals (work accounting): every
    distinct slot inserted into a visited set, endpoints included. *)

val rank_relabel_count : t -> int
(** Edge insertions that triggered an affected-region relabel. *)

val rank_pruned_count : t -> int
(** Reachability directions refuted by rank comparison alone (no
    traversal). *)


val label_hit_count : t -> int
(** Reachability probes answered by the chain-label compare alone (no
    traversal). *)

val label_miss_count : t -> int
(** Probes that passed the rank filter but that the labels could not
    decide — labels not live, or no label path while edges are staged —
    and so ran the BFS. *)

val label_rebuild_count : t -> int
(** Full deterministic label recomputations: one per snapshot restore
    that keeps labels. *)

val max_chains : t -> int
(** The chain cap this graph was created with. *)

val labels_live : t -> bool
(** Whether the chain-label index is in force (gauge
    [engine.labels_live]).  It is exactly while [max_chains > 0] and
    every live event with an incoming sealed edge sits on a chain — a
    function of the sealed adjacency and the chains, so replicas that
    apply the same commands, and a restore of any of them, agree on it;
    staging and {!abort} never change it.  It turns false when a
    sealed edge's target finds no chain (the cap is saturated), which
    frees every label and chain array, and true again only when the edge
    count returns to 0. *)

val chain_count : t -> int
(** Chains currently holding at least one live event. *)

(** {1 Frozen views}

    A {!Frozen.g} is a deeply immutable copy of the query-visible state —
    liveness, generations, ranks, adjacency in both directions, and
    commitment chains — stamped with the graph {!version} at capture time.
    It may be read from any domain without synchronization while the
    writer domain keeps mutating the original (DESIGN.md §14).  The one
    buffer it shares with the live graph is each slot's commitment link
    store, read only below the view's own link count; the writer never
    rewrites those bytes. *)

val version : t -> int
(** Monotonic mutation counter, bumped once per view-visible change:
    event creation, collection, staging an edge, and {!abort} (once per
    removed edge).  Reference count changes that do not collect are
    invisible to views and do not bump it, and neither does {!seal};
    rank relabels happen only while an edge is staged, which bumps it
    once.  This is the epoch stamped on
    frozen views and surfaced in wire replies. *)

module Frozen : sig
  type g
  (** An immutable snapshot of the query-visible graph state.  Values of
      this type are never mutated after {!val:freeze} returns, so they are
      safe to share across domains; reclamation is the garbage collector's
      (a view dies when the last domain drops its reference). *)

  val version : g -> int
  val live_count : g -> int
  val edge_count : g -> int
  val digests_enabled : g -> bool
  val is_live : g -> Event_id.t -> bool
  val rank : g -> Event_id.t -> int option

  val query : g -> Event_id.t -> Event_id.t -> (Order.relation, Event_id.t) result
  (** Same contract as the live {!val:query}, evaluated against the frozen
      state: rank comparison refutes one direction in O(1), and the
      remaining direction is answered by the frozen chain-label compare
      when the view was frozen while labels were live, else by a
      rank-pruned bidirectional BFS.  Traversal scratch (stamped visited
      marks, one two-ended queue) is kept in domain-local storage and
      reused, so concurrent queries from different domains share no
      mutable state and allocate nothing once warm.  Frozen queries update
      no counters and no caches. *)

  val label_reachable : g -> Event_id.t -> Event_id.t -> bool option
  (** The frozen twin of the top-level {!val:label_reachable}: index-only
      answer, [None] when only a BFS could tell. *)

  val commitment : g -> Event_id.t -> string option
  val chain_length : g -> Event_id.t -> int option
  val chain : g -> Event_id.t -> Chain.t option
  (** Chain accessors mirror the live graph's; all answer [None] when the
      view was frozen with digests disabled. *)
end

val freeze : t -> Frozen.g
(** Capture the current query-visible state as an immutable view, in
    time and allocation proportional to what changed since the previous
    freeze, not to graph size.  Every per-slot field of a view (liveness,
    rank, adjacency, chains, and while labels are live the chain index
    and labels) is a two-level
    persistent array of 128-entry chunks under 128-entry blocks.  A
    freeze copies each field's small root, copies the blocks and chunks
    holding a slot mutated since the previous freeze, and shares every
    other chunk with the previous view by pointer; up to 4M slots, every
    array it allocates stays in the minor heap.  The first freeze of a
    graph (including the first after {!of_snapshot}) writes every slot.
    When nothing changed since the last call, the cached view is returned
    as-is.  Must be called from the domain that owns the graph (the
    writer); the result may be handed to any domain. *)
