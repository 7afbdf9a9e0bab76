(* Process-wide mirrors of the per-graph counters, for the metrics plane.
   A process may host several graphs (tests, sim benches) and the counters
   then aggregate across them; the gauges track whichever graph mutated
   last, which in kronosd is the one replica engine. *)
module M = struct
  let scope = Kronos_metrics.scope "engine"
  let traversals = Kronos_metrics.counter scope "bfs_traversals_total"
  let visited = Kronos_metrics.counter scope "bfs_visited_total"
  let rank_relabels = Kronos_metrics.counter scope "rank_relabels_total"
  let rank_pruned = Kronos_metrics.counter scope "rank_pruned_queries_total"
  let bidir = Kronos_metrics.counter scope "bidir_traversals_total"
  let digest_folds = Kronos_metrics.counter scope "digest_folds_total"
  let label_hits = Kronos_metrics.counter scope "label_hits_total"
  let label_misses = Kronos_metrics.counter scope "label_misses_total"
  let label_rebuilds = Kronos_metrics.counter scope "label_rebuilds_total"
  let live = Kronos_metrics.gauge scope "graph_live_events"
  let edges = Kronos_metrics.gauge scope "graph_edges"
  let chains = Kronos_metrics.gauge scope "graph_chains"
  let labels_live = Kronos_metrics.gauge scope "labels_live"
end

(* Commitment link stores (DESIGN.md §13).  A slot's commitment-chain
   links, one per admitted incoming edge, live in one flat append-only
   [Bytes.t]: a u32 link count, then a 44-byte record per link holding
   exactly what a snapshot persists of it — predecessor id (i64),
   predecessor position (u32: a snapshot stores chain lengths as u32) and
   predecessor head (32 bytes).  Partners and earlier heads are not
   stored; [partner] and [refold] recompute the few a prover emits.

   Frozen views share a store by pointer and keep their own count, so no
   byte of a link a view can read is ever written again: links are only
   appended, by [seal], an append writes past every published count, a
   full store grows into a fresh copy, and a collected slot drops its
   store for [empty] instead of resetting it.  The count header belongs to the live graph; views never
   read it. *)
module Links = struct
  let record = 44
  let header = 4
  let head_off = 12
  let max_count = 0xFFFF_FFFF

  (* The shared store of every slot without links.  Never written: the
     first [push] allocates. *)
  let empty = Bytes.empty

  let[@inline] off i = header + (record * i)

  let length st =
    if Bytes.length st = 0 then 0
    else Int32.to_int (Bytes.get_int32_le st 0) land max_count

  let set_length st n = Bytes.set_int32_le st 0 (Int32.of_int n)

  let pred st i = Event_id.of_int64 (Bytes.get_int64_le st (off i))

  let pred_pos st i =
    Int32.to_int (Bytes.get_int32_le st (off i + 8)) land max_count

  let pred_head st i = Bytes.sub_string st (off i + head_off) Chain_digest.length

  (* [st] holding its first [n] links in a fresh buffer with room for
     [cap] links. *)
  let resize st n cap =
    let st' = Bytes.create (off cap) in
    if n > 0 then Bytes.blit st header st' header (record * n);
    set_length st' n;
    st'

  (* Append one link; the result is [st] itself or, when full, a grown
     copy.  A store grows by a quarter, and by one link while a quarter
     rounds below that, so chains up to 8 links fit exactly: slack stays
     out of the short chains that dominate real graphs, and under a
     quarter of a long one.  (On G(10k,50k), growing by half past 4 links
     costs 65 B per link, and doubling 74 B, against 61 B.) *)
  let push st ~pred ~pos ~head =
    let n = length st in
    let st =
      if off (n + 1) <= Bytes.length st then st
      else resize st n (n + max 1 (n / 4))
    in
    let o = off n in
    Bytes.set_int64_le st o (Int64.of_int (pred : Event_id.t :> int));
    Bytes.set_int32_le st (o + 8) (Int32.of_int pos);
    Bytes.blit_string head 0 st (o + head_off) Chain_digest.length;
    set_length st (n + 1);
    st

  (* Link [i]'s partner digest: one compression. *)
  let partner st i = Chain_digest.link_partner (pred st i) (pred_head st i)

  (* The head after the first [n] links of [id]'s chain, refolded from its
     identity digest: two compressions per link. *)
  let refold id st n =
    let h = ref (Chain_digest.init id) in
    for i = 0 to n - 1 do
      h := Chain_digest.fold_link !h (partner st i)
    done;
    !h

  (* Bytes held by a store, header word included. *)
  let heap_bytes st =
    if Bytes.length st = 0 then 0
    else ((Bytes.length st / 8) + 2) * (Sys.word_size / 8)
end

(* One event's chain as of a moment: its store, shared by pointer, with
   the link count and head ("" while the count is 0) of that moment.  A
   frozen view keeps one per slot that has links. *)
type chain = {
  c_id : Event_id.t;
  c_store : Bytes.t;
  c_len : int;
  c_head : string;
}

let no_chain =
  { c_id = Event_id.none; c_store = Links.empty; c_len = 0; c_head = "" }

module Chain = struct
  type t = chain

  let length c = c.c_len

  let commitment c =
    if c.c_len = 0 then Chain_digest.init c.c_id else c.c_head

  let link c i =
    if i < 0 || i >= c.c_len then
      invalid_arg "Graph.Chain: link index out of range";
    i

  let pred c i = Links.pred c.c_store (link c i)
  let pred_pos c i = Links.pred_pos c.c_store (link c i)
  let pred_head c i = Links.pred_head c.c_store (link c i)
  let partner c i = Links.partner c.c_store (link c i)

  let head_at c n =
    if n < 0 || n > c.c_len then invalid_arg "Graph.Chain.head_at: out of range";
    if n = c.c_len then commitment c else Links.refold c.c_id c.c_store n
end

(* The adjacency vector of every slot without edges, shared and never
   written: [adj_push] allocates a slot's own on its first edge. *)
let no_adj = Int_vec.create ~capacity:1 ()

(* Every per-slot field of a frozen view (see [freeze]) is a two-level
   persistent array: slot [s] sits at index [s land chunk_mask] of a chunk
   of [chunk_size] entries, chunks hang off blocks of [chunk_size] chunks,
   and a small root lists the blocks.  A chunk or block is immutable once
   its view is published and is shared by pointer with every later view
   until one of its slots changes.  At 128 entries every array a publish
   allocates stays a minor-heap allocation (the root too, up to 4M slots),
   where a one-level spine of a 100k-slot graph would be a major-heap
   allocation costing more GC work per publish than the rest of it. *)
let chunk_bits = 7
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let block_bits = 2 * chunk_bits (* slots per block, as a shift *)

type 'a pa = 'a array array array

(* Slot [s]'s chunk, for [s] below the view's slot count.  Unchecked: the
   root covers every such slot, blocks and chunks have exactly
   [chunk_size] entries, and the index is masked. *)
let[@inline] pa_chunk (root : 'a pa) s =
  Array.unsafe_get
    (Array.unsafe_get root (s lsr block_bits))
    ((s lsr chunk_bits) land chunk_mask)

(* Typed reads, so the compiler emits a direct load rather than the
   generic float-array test. *)
let[@inline] pa_int (root : int pa) s =
  Array.unsafe_get (pa_chunk root s) (s land chunk_mask)

let[@inline] pa_arr (root : 'a array pa) s =
  Array.unsafe_get (pa_chunk root s) (s land chunk_mask)

let[@inline] pa_chain (root : chain pa) s =
  Array.unsafe_get (pa_chunk root s) (s land chunk_mask)

(* A frozen view's chain index: the live index's per-slot fields as of
   the freeze.  [fi_epoch] names the live index it was copied from, so a
   later freeze shares its chunks only with a view of that same index. *)
type frozen_index = {
  fi_epoch : int;
  fi_place : int pa;
  fi_labels : int array pa;
}

(* A deeply immutable copy of the graph's query-visible state over slots
   [0, f_next_slot), safe to share across domains.  Views only ever test
   liveness, so one word per slot stands in for refcount and generation:
   the generation of a live slot, -1 (which no identifier carries) for a
   free one.  Per-slot adjacency, chain and label arrays are immutable and
   shared structurally too. *)
type frozen = {
  f_version : int;
  f_next_slot : int;
  f_live : int;
  f_edges : int;
  f_digests : bool;
  f_gen : int pa;
  f_rank : int pa;
  f_succ : int array pa;
  f_pred : int array pa;
  f_chains : chain pa;  (* [no_chain] for slots without links *)
  f_index : frozen_index option;  (* [None] while labels are dropped *)
}

(* Chain-decomposition reachability index (DESIGN.md §15).  Live events
   are partitioned greedily into at most [max_chains] chains at edge time;
   every member of a chain reaches all later members (consecutive members
   are joined by a direct edge).  [place.(s)] is [s]'s placement, the
   one word [pack chain pos], or -1 off every chain.  [labels.(s)] is a
   chain-sorted vector of the same words: the {e lowest} position in each
   chain reachable from [s] (self included, so a placed slot's label holds
   its own placement), and [u ⇝ v] iff [labels.(u)] holds an entry of
   [v]'s chain at or below [place.(v)].  Labels
   are exact over the sealed edges — kept so by merge propagation when
   [seal] admits an edge; a staged edge never touches them.  The graph keeps an index only while every live
   slot with an in-edge is on a chain (see [drop_labels]), so a
   destination off every chain has no predecessor, and both answers of
   every query are O(#chains) compares.  Label arrays are immutable once
   installed (replaced, never mutated), so frozen views share them
   structurally, and so may slots. *)
type index = {
  mutable place : int array;      (* per slot; -1 = unassigned *)
  chain_len : Int_vec.t;          (* per chain: members ever appended *)
  chain_live : Int_vec.t;         (* per chain: live members *)
  chain_tail : Int_vec.t;         (* per chain: newest member, -1 if empty *)
  free_chains : Int_vec.t;        (* fully-dead chains, reusable *)
  mutable labels : int array array;
  mutable buf : int array;        (* merge scratch *)
}

type t = {
  mutable refcount : int array;  (* -1 marks a free slot *)
  mutable gen : int array;       (* generation of the current/next tenant *)
  (* [no_adj] until a slot's first edge in that direction *)
  mutable succ : Int_vec.t array;
  (* reverse adjacency, for backward BFS; its length is the in-degree *)
  mutable pred : Int_vec.t array;
  free : Int_vec.t;              (* stack of reusable slots *)
  mutable next_slot : int;       (* high-water mark of ever-used slots *)
  mutable live : int;
  mutable edges : int;
  (* Topological rank index (Pearce–Kelly / Haeupler–Sen–Tarjan style):
     every edge u -> v satisfies rank.(u) < rank.(v), hence by transitivity
     u ⇝ v implies rank.(u) < rank.(v).  Ranks are sparse integers (not a
     dense permutation): fresh events take increasing ranks from
     [next_rank], and an edge insertion that violates the order relabels
     only the affected region forward of the new target.  The contrapositive
     answers reachability negatively in O(1) and bounds every traversal to
     the open rank window (rank src, rank dst). *)
  mutable rank : int array;
  mutable next_rank : int;       (* strictly above every live rank *)
  (* Work stack of the three walks that never nest: [relabel]'s
     (slot, floor) pairs, flattened; [collect]'s cascade; label
     propagation's worklist.  Reachability searches use the per-domain
     [scratch] instead. *)
  stack : Int_vec.t;
  mutable traversals : int;
  mutable visited_total : int;
  mutable rank_relabels : int;
  mutable rank_pruned : int;
  (* Commitment chains (DESIGN.md §13).  Per slot, the link store (see
     [Links]) and the current head, which is the event's commitment; ""
     while the chain is empty, when the commitment is the identity digest,
     recomputed from the identifier on demand — it encodes (slot, gen)
     injectively.  Both arrays are empty when digests are off. *)
  digests : bool;
  mutable links : Bytes.t array;
  mutable heads : string array;
  mutable digest_folds : int;
  (* Epoch counter for the multicore query plane (DESIGN.md §14): bumped on
     every mutation a read view could observe (event creation, collection,
     edge admission/rollback) and never on invisible ones (refcount moves
     that do not collect).  [dirty] lists the slots whose view-visible
     per-slot state (liveness, rank, chain placement, adjacency, chains,
     labels) changed since the last [freeze], each once: its byte in
     [dirty_flags] is set while it is listed.  A freeze copies only the
     chunks holding them and shares the rest with the previous frozen
     view.  Nothing is tracked before the first freeze, which copies every
     slot. *)
  mutable version : int;
  mutable dirty_flags : Bytes.t;
  dirty : Int_vec.t;
  mutable frozen_cache : frozen option;
  (* The chain-label index (DESIGN.md §15): [Some] exactly while
     [max_chains > 0] and every live slot with an in-edge is on a chain.
     [label_epoch] is bumped whenever [index] is dropped or replaced, so
     a freeze never shares index chunks across two different indexes. *)
  max_chains : int;
  mutable index : index option;
  mutable label_epoch : int;
  (* The edges staged since the last [seal] or [abort], as flattened
     (su, sv) pairs in staging order: in the adjacency already, not yet
     in the commitment chains or the labels. *)
  staged : Int_vec.t;
  mutable label_hits : int;
  mutable label_misses : int;
  mutable label_rebuilds : int;
}

let max_gen = (1 lsl 22) - 1

let default_max_chains = 64

(* A label entry is one word: the chain id in the top 22 bits, the
   position in the low 40 (the split of [Event_id]).  Both fields are
   non-negative and the word stays below 2^62, so packed words order by
   chain, then position. *)
let pos_bits = 40
let max_chain_ids = 1 lsl 22   (* chain ids 0 .. 2^22 - 1 *)
let max_chain_len = 1 lsl pos_bits  (* positions 0 .. 2^40 - 1 *)
let[@inline] pack c pos = (c lsl pos_bits) lor pos
let[@inline] entry_chain w = w lsr pos_bits
let[@inline] entry_pos w = w land (max_chain_len - 1)

let new_index cap =
  {
    place = Array.make cap (-1);
    chain_len = Int_vec.create ();
    chain_live = Int_vec.create ();
    chain_tail = Int_vec.create ();
    free_chains = Int_vec.create ();
    labels = Array.make cap [||];
    buf = Array.make 64 0;
  }

let create ?(initial_capacity = 1024) ?(digests = true)
    ?(max_chains = default_max_chains) () =
  if max_chains > max_chain_ids then
    invalid_arg "Graph.create: max_chains above 2^22";
  let cap = max initial_capacity 16 in
  let max_chains = max 0 max_chains in
  Kronos_metrics.Gauge.set M.labels_live (if max_chains > 0 then 1 else 0);
  {
    max_chains;
    index = (if max_chains > 0 then Some (new_index cap) else None);
    label_epoch = 0;
    staged = Int_vec.create ();
    label_hits = 0;
    label_misses = 0;
    label_rebuilds = 0;
    digests;
    links = (if digests then Array.make cap Links.empty else [||]);
    heads = (if digests then Array.make cap "" else [||]);
    digest_folds = 0;
    refcount = Array.make cap (-1);
    gen = Array.make cap 0;
    succ = Array.make cap no_adj;
    pred = Array.make cap no_adj;
    free = Int_vec.create ();
    next_slot = 0;
    live = 0;
    edges = 0;
    rank = Array.make cap 0;
    next_rank = 0;
    stack = Int_vec.create ();
    traversals = 0;
    visited_total = 0;
    rank_relabels = 0;
    rank_pruned = 0;
    version = 0;
    dirty_flags = Bytes.make cap '\000';
    dirty = Int_vec.create ();
    frozen_cache = None;
  }

let capacity g = Array.length g.refcount
let live_count g = g.live
let edge_count g = g.edges
let traversal_count g = g.traversals
let visited_total g = g.visited_total
let rank_relabel_count g = g.rank_relabels
let rank_pruned_count g = g.rank_pruned
let digests_enabled g = g.digests
let digest_fold_count g = g.digest_folds
let label_hit_count g = g.label_hits
let label_miss_count g = g.label_misses
let label_rebuild_count g = g.label_rebuilds
let max_chains g = g.max_chains
let labels_live g = Option.is_some g.index

let chain_count g =
  match g.index with
  | Some ix -> Int_vec.length ix.chain_len - Int_vec.length ix.free_chains
  | None -> 0

let grow g =
  let old = capacity g in
  let cap = 2 * old in
  let copy a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  g.refcount <- copy g.refcount (-1);
  g.gen <- copy g.gen 0;
  g.rank <- copy g.rank 0;
  g.succ <- copy g.succ no_adj;
  g.pred <- copy g.pred no_adj;
  if g.digests then begin
    g.links <- copy g.links Links.empty;
    g.heads <- copy g.heads ""
  end;
  (match g.index with
   | Some ix ->
     ix.place <- copy ix.place (-1);
     ix.labels <- copy ix.labels [||]
   | None -> ());
  g.dirty_flags <- Bytes.extend g.dirty_flags 0 old;
  Bytes.fill g.dirty_flags old old '\000'

(* Install [ix] as the chain-label index, or drop the index ([None]). *)
let set_index g ix =
  g.index <- ix;
  g.label_epoch <- g.label_epoch + 1;
  Kronos_metrics.Gauge.set M.labels_live (if Option.is_some ix then 1 else 0);
  Kronos_metrics.Gauge.set M.chains (chain_count g)

(* Leave label mode (DESIGN.md §15): some live slot with an in-edge could
   not be placed on a chain, so labels could no longer answer queries to
   it.  Rather than keep maintaining labels that decide only part of the
   queries, free the whole index; every query then runs rank-then-BFS,
   as with [max_chains = 0].  Views published before keep their labels. *)
let drop_labels g = set_index g None

(* Labels come back only at zero edges, where every slot is trivially
   placed: a fresh, empty index. *)
let revive_labels g =
  if g.edges = 0 && g.max_chains > 0 && Option.is_none g.index then
    set_index g (Some (new_index (capacity g)))

let version g = g.version

(* Record a view-visible mutation of slot [s]: the next [freeze] must
   rewrite it instead of sharing the previous view's chunks.  Before the
   first freeze there is no view to share with. *)
let touch g s =
  if Option.is_some g.frozen_cache
     && Bytes.unsafe_get g.dirty_flags s = '\000'
  then begin
    Bytes.unsafe_set g.dirty_flags s '\001';
    Int_vec.push g.dirty s
  end

(* Creation, release, [freeze] and [to_snapshot] see only sealed state:
   they refuse to run between a batch's first staged edge and its [seal]
   or [abort]. *)
let check_unstaged g what =
  if not (Int_vec.is_empty g.staged) then
    invalid_arg ("Graph." ^ what ^ ": edges are staged")

(* Resolve an identifier to its slot, checking liveness and generation. *)
let resolve g id =
  let s = Event_id.slot id in
  if id <> Event_id.none
     && s < g.next_slot
     && g.refcount.(s) >= 0
     && g.gen.(s) = Event_id.gen id
  then Some s
  else None

let id_of_slot g s = Event_id.make ~slot:s ~gen:g.gen.(s)

let create_event g =
  check_unstaged g "create_event";
  let s =
    if not (Int_vec.is_empty g.free) then Int_vec.pop g.free
    else begin
      if g.next_slot = capacity g then grow g;
      let s = g.next_slot in
      g.next_slot <- s + 1;
      s
    end
  in
  (* a free slot was reset when collected: no edges, links or label *)
  g.refcount.(s) <- 1;
  (* fresh events take increasing ranks, so edges that follow creation
     order — the common case — never trigger a relabel *)
  g.rank.(s) <- g.next_rank;
  g.next_rank <- g.next_rank + 1;
  g.live <- g.live + 1;
  g.version <- g.version + 1;
  touch g s;
  Kronos_metrics.Gauge.set M.live g.live;
  id_of_slot g s

let is_live g id = resolve g id <> None

let refcount g id =
  match resolve g id with Some s -> Some g.refcount.(s) | None -> None

let acquire_ref g id =
  match resolve g id with
  | Some s ->
    g.refcount.(s) <- g.refcount.(s) + 1;
    true
  | None -> false

let rank g id =
  match resolve g id with Some s -> Some g.rank.(s) | None -> None

(* Reclaim the cascade of vertices reachable from slot [s] that have zero
   references and zero in-degree, depth-first on the work stack.  Removing
   vertices and edges only removes paths, so the rank invariant survives
   collection untouched; the freed slot keeps its stale rank until
   [create_event] overwrites it. *)
let collect g s =
  g.version <- g.version + 1;
  let stack = g.stack in
  Int_vec.clear stack;
  Int_vec.push stack s;
  let collected = ref 0 in
  while not (Int_vec.is_empty stack) do
    let u = Int_vec.pop stack in
    g.refcount.(u) <- (-1);
    g.live <- g.live - 1;
    incr collected;
    touch g u;
    let kill w =
      g.edges <- g.edges - 1;
      ignore (Int_vec.remove_first g.pred.(w) u);
      touch g w;
      if Int_vec.is_empty g.pred.(w) && g.refcount.(w) = 0 then
        Int_vec.push stack w
    in
    Int_vec.iter kill g.succ.(u);
    (* in-degree zero: [pred.(u)] is empty already *)
    g.succ.(u) <- no_adj;
    g.pred.(u) <- no_adj;
    (* Chain links of still-live successors keep referencing this event by
       identifier + head, so certificates through committed history stay
       checkable; only this event's own chain is dropped — for the empty
       store, never reset in place, since views may share it. *)
    if g.digests then begin
      g.links.(u) <- Links.empty;
      g.heads.(u) <- ""
    end;
    (* Retire the slot from the chain-decomposition index.  Members die in
       position order (strict topological GC reclaims predecessors first),
       so a chain empties prefix-first and is recycled only once wholly
       dead; and no surviving label can point at a dead member — a label
       entry witnesses ancestorship, and ancestors are collected first. *)
    (match g.index with
     | Some ix ->
       let w = ix.place.(u) in
       if w >= 0 then begin
         let c = entry_chain w in
         ix.place.(u) <- -1;
         let remaining = Int_vec.get ix.chain_live c - 1 in
         Int_vec.set ix.chain_live c remaining;
         if remaining = 0 then begin
           Int_vec.set ix.chain_len c 0;
           Int_vec.set ix.chain_tail c (-1);
           Int_vec.push ix.free_chains c
         end
       end;
       ix.labels.(u) <- [||]
     | None -> ());
    (* Retire the slot permanently if its generation space is exhausted. *)
    if g.gen.(u) < max_gen then begin
      g.gen.(u) <- g.gen.(u) + 1;
      Int_vec.push g.free u
    end
  done;
  revive_labels g;
  Kronos_metrics.Gauge.set M.live g.live;
  Kronos_metrics.Gauge.set M.edges g.edges;
  !collected

let release_ref g id =
  check_unstaged g "release_ref";
  match resolve g id with
  | None -> None
  | Some s when g.refcount.(s) = 0 ->
    (* zero references: the caller holds no handle to release (the event is
       only pinned by the graph itself) — treat like a stale identifier *)
    None
  | Some s ->
    g.refcount.(s) <- g.refcount.(s) - 1;
    if g.refcount.(s) = 0 && Int_vec.is_empty g.pred.(s) then
      Some (collect g s)
    else Some 0

(* ------------------------------------------------------------------ *)
(* Chain-decomposition reachability labels (DESIGN.md §15).            *)
(* ------------------------------------------------------------------ *)

(* [u ⇝ v] for a label of [u] and the placement [p] of a placed [v]:
   exact labels hold the lowest reachable position per chain, so reaching
   any member of [v]'s chain at or below [v] decides the query in both
   directions.  The label holds at most one entry per chain, sorted, so
   the first entry at or above position 0 of [v]'s chain is the only
   candidate, and it qualifies iff it is at most [p]: one compare per
   entry, O(#chains). *)
let label_le lbl p =
  let lo = p - entry_pos p in
  let n = Array.length lbl in
  let rec go i =
    i < n
    &&
    let w = Array.unsafe_get lbl i in
    if w < lo then go (i + 1) else w <= p
  in
  go 0

let ensure_label_buf ix n =
  if Array.length ix.buf < n then
    ix.buf <- Array.make (max n (2 * Array.length ix.buf)) 0;
  ix.buf

(* Replace a slot's label; [touch] makes the next freeze re-share it. *)
let set_label g ix s lbl =
  ix.labels.(s) <- lbl;
  touch g s

(* Pointwise-min union of [src] into slot [s]'s label.  Returns [true] iff
   the label changed (some entry decreased or appeared) — the propagation
   worklist only follows actual changes, which also bounds the cascade:
   entries decrease monotonically toward 0.  Within one chain the lower
   position is the lower packed word.  An empty label simply takes [src]
   by pointer: label arrays are never mutated. *)
let merge_into g ix s src =
  let a = ix.labels.(s) in
  let la = Array.length a and lb = Array.length src in
  if lb = 0 then false
  else if la = 0 then begin
    set_label g ix s src;
    true
  end
  else begin
    let buf = ensure_label_buf ix (la + lb) in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    let changed = ref false in
    while !i < la && !j < lb do
      let wa = a.(!i) and wb = src.(!j) in
      let ca = entry_chain wa and cb = entry_chain wb in
      if ca < cb then begin
        buf.(!k) <- wa;
        incr i
      end
      else if cb < ca then begin
        buf.(!k) <- wb;
        incr j;
        changed := true
      end
      else begin
        buf.(!k) <- (if wb < wa then begin changed := true; wb end else wa);
        incr i;
        incr j
      end;
      incr k
    done;
    while !i < la do
      buf.(!k) <- a.(!i);
      incr i;
      incr k
    done;
    while !j < lb do
      buf.(!k) <- src.(!j);
      incr j;
      incr k;
      changed := true
    done;
    if !changed then set_label g ix s (Array.sub buf 0 !k);
    !changed
  end

(* Allocate a chain: reuse a wholly-dead one first, mint a new id under the
   cap, or give up (-1) once saturated. *)
let alloc_chain g ix =
  if not (Int_vec.is_empty ix.free_chains) then Int_vec.pop ix.free_chains
  else if Int_vec.length ix.chain_len >= g.max_chains then -1
  else begin
    let c = Int_vec.length ix.chain_len in
    Int_vec.push ix.chain_len 0;
    Int_vec.push ix.chain_live 0;
    Int_vec.push ix.chain_tail (-1);
    c
  end

(* Append slot [s] to chain [c] and give it its self entry.  Only ever
   called when [s] can close the chain property: either [c]'s current tail
   has a direct edge to [s] (admitted by the caller), or [c] is empty.
   Returns [false], changing nothing, when [c] already holds 2^40 members
   ever appended: position 2^40 does not pack, so [s] cannot be placed,
   as when the cap is saturated. *)
let assign_slot g ix s c =
  let pos = Int_vec.get ix.chain_len c in
  if pos >= max_chain_len then false
  else begin
    let w = pack c pos in
    ix.place.(s) <- w;
    Int_vec.set ix.chain_len c (pos + 1);
    Int_vec.set ix.chain_live c (Int_vec.get ix.chain_live c + 1);
    Int_vec.set ix.chain_tail c s;
    (* self entry: min-merge is safe — [s] cannot already reach an earlier
       member of [c] (that member would reach the tail, which reaches [s],
       closing a cycle) *)
    ignore (merge_into g ix s [| w |]);
    Kronos_metrics.Gauge.set M.chains
      (Int_vec.length ix.chain_len - Int_vec.length ix.free_chains);
    true
  end

(* Maintain the index across a sealed edge [su -> sv] ([seal] runs this
   over a batch's staged edges in staging order): place [sv] on a chain if
   it has none (extending [su]'s chain when [su] is its tail — the
   in-creation-order common case — else opening a chain, pairing an
   unassigned [su] in), then restore label exactness by propagating every
   decreased entry backward over predecessors.  The chain-append fast path
   propagates nothing beyond [sv]'s own predecessors: every ancestor
   already reaches the chain at a lower position.  When [sv] cannot be
   placed (cap saturated, or a full chain) the labels are dropped.

   An unplaced [sv] has no sealed in-edge but this one, and an unplaced
   [su] none at all; either may already have in-edges staged after this
   one in [pred].  Those predecessors miss the new self entry for now and
   take it when their own edge is sealed, and propagation follows only
   real edges, so no label claims a path the graph lacks, and every label
   is exact once the last staged edge is sealed.  Placement reads only
   [place] and [chain_tail], reached in staging order, so a batch gets
   the chains, and so the labels, that sealing each edge on its own
   would. *)
let label_admit g ix su sv =
  let placed =
    ix.place.(sv) >= 0
    ||
    let wu = ix.place.(su) in
    if wu >= 0 && Int_vec.get ix.chain_tail (entry_chain wu) = su then
      assign_slot g ix sv (entry_chain wu)
    else begin
      let c = alloc_chain g ix in
      (* a fresh chain is empty, so both appends below succeed *)
      c >= 0
      && begin
        if wu < 0 then ignore (assign_slot g ix su c);
        assign_slot g ix sv c
      end
    end
  in
  if not placed then drop_labels g
  else if merge_into g ix su ix.labels.(sv) then begin
    let stack = g.stack in
    Int_vec.clear stack;
    Int_vec.push stack su;
    while not (Int_vec.is_empty stack) do
      let w = Int_vec.pop stack in
      let lbl = ix.labels.(w) in
      Int_vec.iter
        (fun p -> if merge_into g ix p lbl then Int_vec.push stack p)
        g.pred.(w)
    done
  end

(* Live slots in (rank, slot) order: topological, by the rank
   invariant. *)
let rank_order g =
  let order = ref [] in
  for s = g.next_slot - 1 downto 0 do
    if g.refcount.(s) >= 0 then order := s :: !order
  done;
  let order = Array.of_list !order in
  Array.sort
    (fun a b ->
      let c = compare g.rank.(a) g.rank.(b) in
      if c <> 0 then c else compare a b)
    order;
  order

(* Exact label recomputation: live slots in decreasing (rank, slot) order —
   reverse topological by the rank invariant — each taking its self entry
   plus the min-union of its direct successors' finished labels.  Exact
   labels are a pure function of (adjacency, chain assignment), which is
   why snapshots persist only the chains: every restore recomputes
   bit-identical labels. *)
let compute_labels g ix =
  g.label_rebuilds <- g.label_rebuilds + 1;
  Kronos_metrics.Counter.incr M.label_rebuilds;
  let order = rank_order g in
  for i = Array.length order - 1 downto 0 do
    let v = order.(i) in
    ix.labels.(v) <- [||];
    touch g v;
    let w = ix.place.(v) in
    if w >= 0 then ignore (merge_into g ix v [| w |]);
    Int_vec.iter (fun w -> ignore (merge_into g ix v ix.labels.(w))) g.succ.(v)
  done

(* Per-domain search scratch, shared by every reachability search a
   domain runs, on the live graph and on frozen views of any graph alike:
   searches never nest, and domain-local storage keeps concurrent readers
   apart.  A search bumps [stamp] and marks the slots it reaches forward
   with [2 * stamp] and backward with [2 * stamp + 1], so any older value
   reads as unseen: one load answers seen-forward / seen-backward /
   unseen, and a search starts without clearing anything.  The arrays
   regrow zero-filled and the stamp only moves forward (a 63-bit stamp
   does not wrap in any realistic lifetime), so no mark left by an earlier
   search, on any graph or view, reads as seen.  [queue] holds both
   frontiers, the forward one filled from the front and the backward one
   from the back: a slot is queued by at most one side, so with a cell per
   slot the two ends never cross.  A domain that never searches holds no
   arrays. *)
type scratch = {
  mutable marks : int array;
  mutable stamp : int;
  mutable queue : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () -> { marks = [||]; stamp = 0; queue = [||] })

(* The calling domain's scratch, covering slots [0, n). *)
let scratch_for n =
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.queue < n then begin
    let cap = max n (2 * Array.length sc.queue) in
    sc.marks <- Array.make cap 0;
    sc.queue <- Array.make cap 0
  end;
  sc

(* Rank-pruned bidirectional BFS over slots, allocation-free on the
   domain's scratch.  Every path [src ⇝ dst] climbs strictly in rank, so
   the search is exact within the open window (rank src, rank dst), and an
   empty window refutes it.  Degree guards make the common fresh-event
   cases O(1): a source with no outgoing edge reaches nothing, a
   destination with no incoming edge is unreachable.  The cycle check of
   an out-of-order edge is this same search (see [stage]).

   The search is level-synchronous on both sides and each round expands the
   smaller frontier.  Levels are expanded completely even once a meeting
   point is found: the visited sets then depend only on the {e sets} of
   edges, not on adjacency-list order, which keeps [visited_total]
   deterministic across snapshot restores (reverse adjacency is rebuilt in
   slot order there, losing the original interleaving).

   Work accounting: every traversal adds to [visited_total] the number of
   distinct slots marked, endpoints included (the source and destination
   seed their sides, fixing the historical undercount of the destination
   on found paths).  Every marked slot is also queued, so that number is
   the count of queue cells the two sides filled. *)
let reachable_slots g src dst =
  if src = dst then true
  else begin
    let rank = g.rank in
    let rlo = rank.(src) and rhi = rank.(dst) in
    if rlo >= rhi then false
    else if Int_vec.is_empty g.succ.(src) || Int_vec.is_empty g.pred.(dst)
    then false
    else begin
      g.traversals <- g.traversals + 1;
      Kronos_metrics.Counter.incr M.traversals;
      let sc = scratch_for g.next_slot in
      sc.stamp <- sc.stamp + 1;
      let fmark = 2 * sc.stamp in
      let bmark = fmark + 1 in
      let marks = sc.marks and q = sc.queue in
      let last = Array.length q - 1 in
      marks.(src) <- fmark;
      marks.(dst) <- bmark;
      q.(0) <- src;
      q.(last) <- dst;
      (* Each side's current level is the queue cells from [head] to
         [tail], [tail] excluded, stepping by [dir]: the forward side fills
         upward from cell 0, the backward side downward from cell
         [last]. *)
      let fh = ref 0 and ft = ref 1 in
      let bh = ref last and bt = ref (last - 1) in
      let found = ref false in
      (* Expand one side's current level over [adj], marking with [mine];
         reaching a slot marked [theirs] means the frontiers met. *)
      let expand adj dir head tail mine theirs =
        let lo = !head and hi = !tail in
        head := hi;
        let i = ref lo in
        while !i <> hi do
          let edges = adj.(q.(!i)) in
          i := !i + dir;
          let data = Int_vec.unsafe_data edges in
          for k = 0 to Int_vec.length edges - 1 do
            let w = Array.unsafe_get data k in
            let m = marks.(w) in
            if m = theirs then found := true
            else if m <> mine && (let r = rank.(w) in r > rlo && r < rhi)
            then begin
              marks.(w) <- mine;
              q.(!tail) <- w;
              tail := !tail + dir
            end
          done
        done
      in
      while (not !found) && !fh < !ft && !bh > !bt do
        if !ft - !fh <= !bh - !bt then expand g.succ 1 fh ft fmark bmark
        else begin
          Kronos_metrics.Counter.incr M.bidir;
          expand g.pred (-1) bh bt bmark fmark
        end
      done;
      let visited = !ft + (last - !bt) in
      g.visited_total <- g.visited_total + visited;
      Kronos_metrics.Counter.add M.visited visited;
      !found
    end
  end

(* The label answer to [u ⇝ v] over the sealed edges: [Some] while labels
   are live — both ways, in O(#chains), since a destination off every
   chain has no sealed predecessor at all — and [None] without them.
   Staged edges only add paths, so while a batch is staged only a
   positive answer still holds. *)
let label_answer g su sv =
  match g.index with
  | None -> None
  | Some ix ->
    let p = ix.place.(sv) in
    if p >= 0 && label_le ix.labels.(su) p then Some true
    else if Int_vec.is_empty g.staged then Some false
    else None

(* A negative answer by rank comparison alone: u ⇝ v requires
   rank u < rank v, so rank u >= rank v (distinct slots) refutes it in O(1).
   The labels answer the remaining direction when they can; otherwise
   (labels dropped, [max_chains = 0], or no label path while edges are
   staged) the BFS, which sees the staged adjacency, answers. *)
let reachable_ranked g su sv =
  if su = sv then false
  else if g.rank.(su) >= g.rank.(sv) then begin
    g.rank_pruned <- g.rank_pruned + 1;
    Kronos_metrics.Counter.incr M.rank_pruned;
    false
  end
  else
    match label_answer g su sv with
    | Some ans ->
      g.label_hits <- g.label_hits + 1;
      Kronos_metrics.Counter.incr M.label_hits;
      ans
    | None ->
      g.label_misses <- g.label_misses + 1;
      Kronos_metrics.Counter.incr M.label_misses;
      reachable_slots g su sv

(* Label-only probe for provers and planners: [Some ans] when rank or label
   decides [u ⇝ v] without traversing, [None] when only a BFS could tell.
   Deliberately counter-free — a prover consults it per candidate edge and
   would otherwise drown the query-path hit-rate signal. *)
let label_reachable g u v =
  match resolve g u, resolve g v with
  | Some su, Some sv ->
    if su = sv || g.rank.(su) >= g.rank.(sv) then Some false
    else label_answer g su sv
  | (None | Some _), _ -> Some false

let reachable g u v =
  match resolve g u, resolve g v with
  | Some su, Some sv -> reachable_ranked g su sv
  | (None | Some _), _ -> false

(* The rank comparison eliminates at least one BFS direction of every query
   outright: at most one of e1 ⇝ e2 / e2 ⇝ e1 is compatible with the rank
   order, and with equal ranks (distinct slots) both are refuted. *)
let query g e1 e2 =
  match resolve g e1, resolve g e2 with
  | None, _ -> Error e1
  | _, None -> Error e2
  | Some s1, Some s2 ->
    if s1 = s2 then Ok Order.Same
    else begin
      let r1 = g.rank.(s1) and r2 = g.rank.(s2) in
      let prune n =
        g.rank_pruned <- g.rank_pruned + n;
        Kronos_metrics.Counter.add M.rank_pruned n
      in
      if r1 < r2 then begin
        prune 1;
        if reachable_ranked g s1 s2 then Ok Order.Before
        else Ok Order.Concurrent
      end
      else if r2 < r1 then begin
        prune 1;
        if reachable_ranked g s2 s1 then Ok Order.After
        else Ok Order.Concurrent
      end
      else begin
        prune 2;
        Ok Order.Concurrent
      end
    end

(* Slot [s]'s current chain head: its commitment. *)
let head_of_slot g s =
  let h = g.heads.(s) in
  if String.length h = 0 then Chain_digest.init (id_of_slot g s) else h

(* Fold one link into slot [v]'s chain: two SHA-256 compressions (partner
   digest + chain fold). *)
let append_link g v ~pred ~pos ~pred_head =
  let partner = Chain_digest.link_partner pred pred_head in
  g.heads.(v) <- Chain_digest.fold_link (head_of_slot g v) partner;
  g.links.(v) <- Links.push g.links.(v) ~pred ~pos ~head:pred_head;
  g.digest_folds <- g.digest_folds + 2;
  Kronos_metrics.Counter.add M.digest_folds 2

(* The link for the admitted edge su -> sv. *)
let fold_edge g su sv =
  append_link g sv ~pred:(id_of_slot g su) ~pos:(Links.length g.links.(su))
    ~pred_head:(head_of_slot g su)

(* Append to a slot's adjacency, giving it its own vector on its first
   edge. *)
let adj_push adj s x =
  let v = adj.(s) in
  if v == no_adj then begin
    let v = Int_vec.create ~capacity:2 () in
    Int_vec.push v x;
    adj.(s) <- v
  end
  else Int_vec.push v x

(* Stage [su -> sv]: adjacency only.  [seal] folds its commitment link
   and admits it to the labels; [abort] pops it. *)
let stage_edge g su sv =
  (* A link count past the u32 a store and a snapshot hold it in would
     need ~176 GiB of store; refuse it before mutating anything.  Every
     staged edge into [sv] is counted in its in-degree, so [seal] can
     never overflow the store. *)
  if g.digests
     && Links.length g.links.(sv) + Int_vec.length g.pred.(sv)
        >= Links.max_count
  then invalid_arg "Graph.add_edge: commitment chain full";
  adj_push g.succ su sv;
  adj_push g.pred sv su;
  g.edges <- g.edges + 1;
  g.version <- g.version + 1;
  touch g su;
  touch g sv;
  Int_vec.push g.staged su;
  Int_vec.push g.staged sv;
  Kronos_metrics.Gauge.set M.edges g.edges

(* Restore the invariant after admitting an edge whose target ranked at or
   below its source: push every forward path out of [sv] strictly above
   [floor].  Depth-first on an explicit stack of (slot, floor) pairs; a slot
   is re-examined only when a later visit raises its floor, so the work is
   confined to the affected region (Pearce–Kelly's discovery set).  The
   caller has already refuted a cycle, so the cascade terminates. *)
let relabel g sv floor =
  g.rank_relabels <- g.rank_relabels + 1;
  Kronos_metrics.Counter.incr M.rank_relabels;
  let stack = g.stack in
  Int_vec.clear stack;
  Int_vec.push stack sv;
  Int_vec.push stack floor;
  while not (Int_vec.is_empty stack) do
    let floor = Int_vec.pop stack in
    let w = Int_vec.pop stack in
    if g.rank.(w) <= floor then begin
      let r = floor + 1 in
      g.rank.(w) <- r;
      touch g w;
      if r >= g.next_rank then g.next_rank <- r + 1;
      Int_vec.iter
        (fun x ->
          Int_vec.push stack x;
          Int_vec.push stack r)
        g.succ.(w)
    end
  done

(* Stage [su -> sv] unless it would close a cycle.  An edge against the
   rank order closes one iff [sv ⇝ su], which the query search answers
   exactly: the path would climb strictly in rank from [sv] to [su], so
   the window (rank sv, rank su) bounds it, equal ranks refute it, and a
   fresh endpoint without an out-edge from [sv] or an in-edge into [su]
   answers without a traversal.  (Haeupler, Sen and Tarjan's incremental
   cycle detection is the same two-way search bounded by a topological
   order.)  The relabel it may cause is never undone: removing an edge
   cannot break "u ⇝ v implies rank u < rank v", it only removes paths,
   so the new ranks are a valid order for the graph after an [abort]
   too. *)
let stage g su sv =
  if g.rank.(su) < g.rank.(sv) then begin
    (* ranks already agree: v ⇝ u is impossible, no cycle, O(1) *)
    stage_edge g su sv;
    true
  end
  else if reachable_slots g sv su then false
  else begin
    relabel g sv g.rank.(su);
    stage_edge g su sv;
    true
  end

let try_add_edge g u v =
  match resolve g u, resolve g v with
  | Some su, Some sv -> su <> sv && stage g su sv
  | (None | Some _), _ -> invalid_arg "Graph.try_add_edge: stale event"

(* Commit the staged edges in staging order: fold each one's commitment
   link, then admit it to the labels — what admitting the edges one at a
   time would do, so the heads and labels match.  The staging already
   bumped [version] once per edge, and a seal changes nothing a view could
   have seen in between: [freeze] refuses to run while edges are
   staged. *)
let seal g =
  let st = g.staged in
  let n = Int_vec.length st in
  let data = Int_vec.unsafe_data st in
  let i = ref 0 in
  while !i < n do
    let su = data.(!i) and sv = data.(!i + 1) in
    if g.digests then fold_edge g su sv;
    (match g.index with Some ix -> label_admit g ix su sv | None -> ());
    i := !i + 2
  done;
  Int_vec.clear st

(* Pop the staged edges newest first.  Each is then the last entry of its
   source's successors and of its target's predecessors.  Nothing else
   needs undoing: commitments and labels only ever see sealed edges. *)
let abort g =
  let st = g.staged in
  while not (Int_vec.is_empty st) do
    let sv = Int_vec.pop st in
    let su = Int_vec.pop st in
    ignore (Int_vec.pop g.succ.(su));
    ignore (Int_vec.pop g.pred.(sv));
    g.edges <- g.edges - 1;
    g.version <- g.version + 1;
    touch g su;
    touch g sv
  done;
  Kronos_metrics.Gauge.set M.edges g.edges

let add_edge g u v =
  match resolve g u, resolve g v with
  | Some su, Some sv ->
    if su = sv then invalid_arg "Graph.add_edge: self edge";
    if not (stage g su sv) then
      invalid_arg "Graph.add_edge: edge would close a cycle";
    seal g
  | (None | Some _), _ -> invalid_arg "Graph.add_edge: stale event"

type chain_snapshot = {
  cs_chain_of : int array;    (* per slot; -1 = unassigned *)
  cs_chain_pos : int array;   (* per slot *)
  cs_chain_len : int array;   (* per chain *)
  cs_free_chains : int array; (* wholly-dead chains, stack order *)
}

type snapshot = {
  snap_next_slot : int;
  snap_refcount : int array;
  snap_gen : int array;
  snap_succ : int array array;
  snap_free : int array;
  snap_rank : int array;
  snap_next_rank : int;
  snap_traversals : int;
  snap_visited_total : int;
  snap_links : (int64 * string * int) array array option;
  snap_version : int;
  snap_chains : chain_snapshot;
}

let to_snapshot g =
  check_unstaged g "to_snapshot";
  let n = g.next_slot in
  let int_vec_to_array v = Array.init (Int_vec.length v) (Int_vec.get v) in
  {
    snap_next_slot = n;
    snap_refcount = Array.sub g.refcount 0 n;
    snap_gen = Array.sub g.gen 0 n;
    snap_succ = Array.init n (fun i -> int_vec_to_array g.succ.(i));
    snap_free = int_vec_to_array g.free;
    snap_rank = Array.sub g.rank 0 n;
    snap_next_rank = g.next_rank;
    snap_traversals = g.traversals;
    snap_visited_total = g.visited_total;
    snap_links =
      (if not g.digests then None
       else
         Some
           (Array.init n (fun i ->
                let st = g.links.(i) in
                Array.init (Links.length st) (fun j ->
                    ( Event_id.to_int64 (Links.pred st j),
                      Links.pred_head st j,
                      Links.pred_pos st j )))));
    snap_version = g.version;
    snap_chains =
      (match g.index with
       | Some ix ->
         let place = ix.place in
         {
           cs_chain_of =
             Array.init n (fun s ->
                 if place.(s) < 0 then -1 else entry_chain place.(s));
           (* position 0 for an off-chain slot *)
           cs_chain_pos =
             Array.init n (fun s ->
                 if place.(s) < 0 then 0 else entry_pos place.(s));
           cs_chain_len = int_vec_to_array ix.chain_len;
           cs_free_chains = int_vec_to_array ix.free_chains;
         }
       | None ->
         (* no index: an empty chain section, every slot off-chain *)
         {
           cs_chain_of = Array.make n (-1);
           cs_chain_pos = Array.make n 0;
           cs_chain_len = [||];
           cs_free_chains = [||];
         });
  }

(* Deterministic commitment reconstruction for captures without a digest
   section (snapshots of a digest-less engine restored into a
   digest-enabled one).  Live slots are processed in
   (rank, slot) order — a topological order by the rank invariant — and each
   slot folds one link per stored predecessor, in reverse-adjacency order,
   using the predecessor's {e final} head.  The result depends only on the
   snapshot's adjacency (reverse adjacency is rebuilt in slot-iteration
   order by [of_snapshot]) and not on which valid rank assignment is in
   force: any topological order finalizes predecessors first and yields the
   same folds.  Restores of the same logical graph therefore agree on every
   commitment.

   The rebuilt chains are generally {e not} the ones the captured engine
   held — the original interleaving of edge admissions is not recorded — so
   turning digests on re-anchors commitments; DESIGN.md §13 spells this
   out. *)
let rebuild_chains g =
  Array.iter
    (fun v -> Int_vec.iter (fun u -> fold_edge g u v) g.pred.(v))
    (rank_order g)

let of_snapshot ?(initial_capacity = 1024) ?(digests = true)
    ?(max_chains = default_max_chains) s =
  let fail what = invalid_arg ("Graph.of_snapshot: " ^ what) in
  let n = s.snap_next_slot in
  if n < 0 || n > Event_id.max_slot + 1 then fail "bad slot count";
  if Array.length s.snap_refcount <> n
     || Array.length s.snap_gen <> n
     || Array.length s.snap_succ <> n
  then fail "mismatched array lengths";
  let g =
    create ~initial_capacity:(max initial_capacity n) ~digests ~max_chains ()
  in
  g.next_slot <- n;
  let live = ref 0 in
  for i = 0 to n - 1 do
    let rc = s.snap_refcount.(i) and gen = s.snap_gen.(i) in
    if rc < -1 then fail "bad refcount";
    if gen < 0 || gen > max_gen then fail "bad generation";
    g.refcount.(i) <- rc;
    g.gen.(i) <- gen;
    if rc >= 0 then incr live
  done;
  g.live <- !live;
  let edges = ref 0 in
  for i = 0 to n - 1 do
    let outs = s.snap_succ.(i) in
    if Array.length outs > 0 && g.refcount.(i) < 0 then
      fail "edge out of a free slot";
    Array.iter
      (fun w ->
        if w < 0 || w >= n || g.refcount.(w) < 0 then fail "edge to a free slot";
        adj_push g.succ i w;
        adj_push g.pred w i;
        incr edges)
      outs
  done;
  g.edges <- !edges;
  (* a slot listed twice would be handed out twice *)
  let on_free_list = Array.make n false in
  Array.iter
    (fun f ->
      if f < 0 || f >= n || g.refcount.(f) >= 0 || on_free_list.(f) then
        fail "bad free slot";
      on_free_list.(f) <- true;
      Int_vec.push g.free f)
    s.snap_free;
  let ranks = s.snap_rank in
  if Array.length ranks <> n then fail "mismatched rank length";
  let max_rank = ref (-1) in
  for i = 0 to n - 1 do
    if ranks.(i) < 0 then fail "bad rank";
    g.rank.(i) <- ranks.(i);
    if ranks.(i) > !max_rank then max_rank := ranks.(i)
  done;
  for i = 0 to n - 1 do
    Int_vec.iter
      (fun w -> if ranks.(i) >= ranks.(w) then fail "rank invariant violated")
      g.succ.(i)
  done;
  (* a too-small next_rank would only cost extra relabels, never
     correctness, but genuine snapshots always satisfy this *)
  g.next_rank <- max s.snap_next_rank (!max_rank + 1);
  (if digests then
     match s.snap_links with
     | Some links ->
       if Array.length links <> n then fail "mismatched link table length";
       for v = 0 to n - 1 do
         let ls = links.(v) in
         if Array.length ls > 0 && g.refcount.(v) < 0 then
           fail "chain links on a free slot";
         if Array.length ls > Links.max_count then fail "chain too long";
         Array.iter
           (fun (pred64, pred_head, pred_pos) ->
             let pred =
               try Event_id.of_int64 pred64
               with Invalid_argument _ -> fail "bad link predecessor"
             in
             if String.length pred_head <> Chain_digest.length then
               fail "bad link head length";
             if pred_pos < 0 || pred_pos > Links.max_count then
               fail "bad link position";
             append_link g v ~pred ~pos:pred_pos ~pred_head)
           ls
       done
     | None -> rebuild_chains g);
  (* Chain-decomposition index.  A persisted chain section is validated
     against its own invariants (ids and lengths within the packed label
     range, one member per position, live members a consecutive suffix
     joined by direct edges, dead chains reset and freed) and installed
     verbatim — the cap only gates {e new} chains, so a capture from a
     larger-capped engine still loads.  Labels are never persisted: exact
     labels are a pure function of adjacency + chains, recomputed
     identically on every restore.  They are kept only in label mode —
     [max_chains > 0] and every live slot with an in-edge on a chain —
     the rule the captured engine followed, so a capture with an empty
     chain section and edges (labels dropped) restores without labels. *)
  let cs = s.snap_chains in
  if Array.length cs.cs_chain_of <> n || Array.length cs.cs_chain_pos <> n
  then fail "mismatched chain index length";
  let nc = Array.length cs.cs_chain_len in
  (* label entries pack a chain id below 2^22 and a position below 2^40 *)
  if nc > max_chain_ids then fail "chain id outside the packed range";
  Array.iter
    (fun l ->
      if l < 0 || l > max_chain_len then
        fail "chain length outside the packed range")
    cs.cs_chain_len;
  let ix =
    match g.index with Some ix -> ix | None -> new_index (capacity g)
  in
  let members = Array.make (max nc 1) [] in
  for i = 0 to n - 1 do
    let c = cs.cs_chain_of.(i) in
    if c < -1 || c >= nc then fail "bad chain id";
    if c >= 0 then begin
      if g.refcount.(i) < 0 then fail "chain entry on a free slot";
      let p = cs.cs_chain_pos.(i) in
      if p < 0 || p >= cs.cs_chain_len.(c) then fail "bad chain position";
      ix.place.(i) <- pack c p;
      members.(c) <- i :: members.(c)
    end
  done;
  let on_free = Array.make (max nc 1) false in
  Array.iter
    (fun c ->
      if c < 0 || c >= nc || on_free.(c) then fail "bad free chain";
      on_free.(c) <- true)
    cs.cs_free_chains;
  for c = 0 to nc - 1 do
    let ms =
      List.sort
        (fun a b -> compare cs.cs_chain_pos.(a) cs.cs_chain_pos.(b))
        members.(c)
    in
    let live = List.length ms in
    Int_vec.push ix.chain_len cs.cs_chain_len.(c);
    Int_vec.push ix.chain_live live;
    if live = 0 then begin
      if cs.cs_chain_len.(c) <> 0 || not on_free.(c) then
        fail "dead chain not reset";
      Int_vec.push ix.chain_tail (-1)
    end
    else begin
      if on_free.(c) then fail "live chain on the free list";
      let expect = ref (cs.cs_chain_len.(c) - live) in
      let prev = ref (-1) in
      List.iter
        (fun m ->
          if cs.cs_chain_pos.(m) <> !expect then
            fail "chain positions not a suffix";
          incr expect;
          if !prev >= 0 && not (Int_vec.mem g.succ.(!prev) m) then
            fail "chain members not joined by an edge";
          prev := m)
        ms;
      Int_vec.push ix.chain_tail !prev
    end
  done;
  Array.iter (fun c -> Int_vec.push ix.free_chains c) cs.cs_free_chains;
  let placed = ref true in
  for i = 0 to n - 1 do
    if (not (Int_vec.is_empty g.pred.(i))) && ix.place.(i) < 0 then
      placed := false
  done;
  if g.max_chains > 0 && !placed then begin
    set_index g (Some ix);
    compute_labels g ix
  end
  else set_index g None;
  g.traversals <- s.snap_traversals;
  g.visited_total <- s.snap_visited_total;
  (* Restored epochs must continue monotonically so a client's
     [`At_least e] demand issued before a restart is still satisfiable
     after it. *)
  g.version <- s.snap_version;
  g

let commitment g id =
  match resolve g id with
  | Some s when g.digests -> Some (head_of_slot g s)
  | Some _ | None -> None

let chain_length g id =
  match resolve g id with
  | Some s when g.digests -> Some (Links.length g.links.(s))
  | Some _ | None -> None

let chain g id =
  match resolve g id with
  | Some s when g.digests ->
    let st = g.links.(s) in
    Some
      { c_id = id; c_store = st; c_len = Links.length st; c_head = g.heads.(s) }
  | Some _ | None -> None

let out_degree g id =
  match resolve g id with
  | Some s -> Some (Int_vec.length g.succ.(s))
  | None -> None

let in_degree g id =
  match resolve g id with
  | Some s -> Some (Int_vec.length g.pred.(s))
  | None -> None

let successors g id =
  match resolve g id with
  | Some s -> List.map (id_of_slot g) (Int_vec.to_list g.succ.(s))
  | None -> []

let predecessors g id =
  match resolve g id with
  | Some s -> List.map (id_of_slot g) (Int_vec.to_list g.pred.(s))
  | None -> []

let iter_live g f =
  for s = 0 to g.next_slot - 1 do
    if g.refcount.(s) >= 0 then f (id_of_slot g s)
  done

let fold_edges g f init =
  let acc = ref init in
  for s = 0 to g.next_slot - 1 do
    if g.refcount.(s) >= 0 then begin
      let u = id_of_slot g s in
      Int_vec.iter (fun w -> acc := f !acc u (id_of_slot g w)) g.succ.(s)
    end
  done;
  !acc

(* Heap bytes of the graph's own structures, counted as the runtime lays
   them out: one header word per block, a string or bytes rounded up to
   whole words with a padding byte.  Not counted: the graph record and
   the cached frozen view, which belongs to whoever holds views.  A label
   array several slots share is counted once per slot. *)
let memory_bytes g =
  let word = Sys.word_size / 8 in
  let block fields = (fields + 1) * word in
  let arr a = block (Array.length a) in
  let vec v = block 2 + arr (Int_vec.unsafe_data v) in
  let string_bytes n = block ((n / word) + 1) in
  let adjacency a =
    Array.fold_left (fun acc v -> if v == no_adj then acc else acc + vec v) 0 a
  in
  let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a in
  (* the [Some] box, the record, its arrays and vectors *)
  let index ix =
    block 1 + block 7 + arr ix.place + arr ix.buf + arr ix.labels
    + sum (fun l -> if Array.length l = 0 then 0 else arr l) ix.labels
    + vec ix.chain_len + vec ix.chain_live + vec ix.chain_tail
    + vec ix.free_chains
  in
  arr g.refcount + arr g.gen + arr g.rank
  + arr g.succ + arr g.pred + adjacency g.succ + adjacency g.pred
  + (match g.index with Some ix -> index ix | None -> 0)
  (* dirty tracking: a flag byte per slot and the list of flagged slots *)
  + string_bytes (Bytes.length g.dirty_flags) + vec g.dirty
  + vec g.free + vec g.stack + vec g.staged
  (* commitment chains: link stores and current heads *)
  + arr g.links + arr g.heads
  + sum Links.heap_bytes g.links
  + sum (fun h -> if String.length h = 0 then 0 else string_bytes (String.length h))
      g.heads

(* ------------------------------------------------------------------ *)
(* Frozen views (DESIGN.md §14).                                       *)
(* ------------------------------------------------------------------ *)

let int_vec_array v = Array.init (Int_vec.length v) (Int_vec.get v)

(* One-block templates whose every slot reads [fill]: what a field holds
   for slots past the previous view's end.  Never written — [pa_set]
   copies a block or chunk before its first write. *)
let pa_empty fill = [| Array.make chunk_size (Array.make chunk_size fill) |]
let minus_ones : int pa = pa_empty (-1)
let zeros : int pa = pa_empty 0
let no_ints : int array pa = pa_empty [||]
let no_chains : chain pa = pa_empty no_chain

(* The next version of [old] over [blocks] blocks, sharing every block
   with it. *)
let pa_next old empty blocks =
  let root = Array.make blocks empty.(0) in
  Array.blit old 0 root 0 (Array.length old);
  root

(* Write slot [s] of [root], the next version of [old]: a block or chunk
   still physically [old]'s (or the template's) is copied before its first
   write, so [old] and every view sharing it never change. *)
let pa_set root old empty s v =
  let b = s lsr block_bits and k = (s lsr chunk_bits) land chunk_mask in
  let old_block = if b < Array.length old then old.(b) else empty.(0) in
  let block =
    let blk = root.(b) in
    if blk != old_block then blk
    else begin
      let blk = Array.copy blk in
      root.(b) <- blk;
      blk
    end
  in
  let c =
    let c = block.(k) in
    if c != old_block.(k) then c
    else begin
      let c = Array.copy c in
      block.(k) <- c;
      c
    end
  in
  c.(s land chunk_mask) <- v

(* Publish an immutable copy of the query-visible state in O(dirty): each
   field's next version copies the small root, plus — once each — the
   block and chunk holding every slot dirtied since the previous freeze;
   every other block and chunk is shared with the previous view by
   pointer.  Sharing is sound because [frozen_cache] always holds the
   {e latest} freeze and [dirty] lists exactly the slots mutated since
   it; slots created since are dirty too, so chunks past the previous
   view's end are always written.  The first freeze (and the first after a
   restore) writes every slot, and from then on [touch] tracks.  Must be
   called from the writer domain only (it consumes the dirty list and
   updates the cache); the returned value may then be read from any
   domain. *)
let freeze g =
  check_unstaged g "freeze";
  match g.frozen_cache with
  | Some f when f.f_version = g.version -> f
  | prev ->
    let n = g.next_slot in
    let blocks = (n + (1 lsl block_bits) - 1) lsr block_bits in
    let next old empty =
      let root = pa_next old empty blocks in
      (root, pa_set root old empty)
    in
    let old field = match prev with Some p -> field p | None -> [||] in
    let gen, set_gen = next (old (fun f -> f.f_gen)) minus_ones in
    let rank, set_rank = next (old (fun f -> f.f_rank)) zeros in
    let succ, set_succ = next (old (fun f -> f.f_succ)) no_ints in
    let pred, set_pred = next (old (fun f -> f.f_pred)) no_ints in
    let chains, set_chains = next (old (fun f -> f.f_chains)) no_chains in
    (* Index chunks are shared only with a view of the same index: a view
       from before a drop or a revival holds another index's entries.  A
       revived index starts with every slot at the templates' values, and
       every slot it has changed since is dirty. *)
    let index, copy_index_slot =
      match g.index with
      | None -> (None, fun _ -> ())
      | Some ix ->
        let old field =
          match prev with
          | Some { f_index = Some fi; _ } when fi.fi_epoch = g.label_epoch ->
            field fi
          | Some _ | None -> [||]
        in
        let place, set_place = next (old (fun fi -> fi.fi_place)) minus_ones in
        let labels, set_labels = next (old (fun fi -> fi.fi_labels)) no_ints in
        ( Some
            { fi_epoch = g.label_epoch; fi_place = place; fi_labels = labels },
          fun s ->
            set_place s ix.place.(s);
            (* label arrays are immutable once installed: share the
               pointer *)
            set_labels s ix.labels.(s) )
    in
    let copy_slot s =
      set_gen s (if g.refcount.(s) >= 0 then g.gen.(s) else -1);
      set_rank s g.rank.(s);
      set_succ s (int_vec_array g.succ.(s));
      set_pred s (int_vec_array g.pred.(s));
      (* the store is shared: the view keeps its own count and head *)
      (if g.digests then
         let st = g.links.(s) in
         let n = Links.length st in
         if n > 0 then
           set_chains s
             { c_id = id_of_slot g s; c_store = st; c_len = n;
               c_head = g.heads.(s) }
         else set_chains s no_chain);
      copy_index_slot s
    in
    (match prev with
     | Some _ ->
       Int_vec.iter
         (fun s ->
           copy_slot s;
           Bytes.unsafe_set g.dirty_flags s '\000')
         g.dirty;
       Int_vec.clear g.dirty
     | None ->
       for s = 0 to n - 1 do
         copy_slot s
       done);
    let f =
      {
        f_version = g.version;
        f_next_slot = n;
        f_live = g.live;
        f_edges = g.edges;
        f_digests = g.digests;
        f_gen = gen;
        f_rank = rank;
        f_succ = succ;
        f_pred = pred;
        f_chains = chains;
        f_index = index;
      }
    in
    g.frozen_cache <- Some f;
    f

module Frozen = struct
  type g = frozen

  let version f = f.f_version
  let live_count f = f.f_live
  let edge_count f = f.f_edges
  let digests_enabled f = f.f_digests

  (* [id]'s slot when [id] is live in the view, else -1; allocation-free. *)
  let slot_of f id =
    let s = Event_id.slot id in
    if id <> Event_id.none
       && s < f.f_next_slot
       && pa_int f.f_gen s = Event_id.gen id
    then s
    else -1

  let is_live f id = slot_of f id >= 0

  let rank f id =
    let s = slot_of f id in
    if s < 0 then None else Some (pa_int f.f_rank s)

  (* The live graph's [reachable_slots] over the frozen fields, on the
     same per-domain scratch, with in-degree read off the immutable
     reverse adjacency.  Frozen queries deliberately touch no
     process-wide metrics counters and no mutable graph state: the whole
     read path is write-free outside the domain's own scratch. *)
  let reachable_slots f src dst =
    if src = dst then true
    else begin
      let rank = f.f_rank and succ = f.f_succ and pred = f.f_pred in
      let rlo = pa_int rank src and rhi = pa_int rank dst in
      if rlo >= rhi then false
      else if
        Array.length (pa_arr succ src) = 0 || Array.length (pa_arr pred dst) = 0
      then false
      else begin
        let sc = scratch_for f.f_next_slot in
        sc.stamp <- sc.stamp + 1;
        let fmark = 2 * sc.stamp in
        let bmark = fmark + 1 in
        let marks = sc.marks and q = sc.queue in
        let last = Array.length q - 1 in
        marks.(src) <- fmark;
        marks.(dst) <- bmark;
        q.(0) <- src;
        q.(last) <- dst;
        let fh = ref 0 and ft = ref 1 in
        let bh = ref last and bt = ref (last - 1) in
        let found = ref false in
        let expand adj dir head tail mine theirs =
          let lo = !head and hi = !tail in
          head := hi;
          let i = ref lo in
          while !i <> hi do
            let edges = pa_arr adj q.(!i) in
            i := !i + dir;
            for k = 0 to Array.length edges - 1 do
              let w = Array.unsafe_get edges k in
              let m = marks.(w) in
              if m = theirs then found := true
              else if m <> mine && (let r = pa_int rank w in r > rlo && r < rhi)
              then begin
                marks.(w) <- mine;
                q.(!tail) <- w;
                tail := !tail + dir
              end
            done
          done
        in
        while (not !found) && !fh < !ft && !bh > !bt do
          if !ft - !fh <= !bh - !bt then expand succ 1 fh ft fmark bmark
          else expand pred (-1) bh bt bmark fmark
        done;
        !found
      end
    end

  (* The same label fast path as the live graph's [reachable_ranked]: a
     view frozen while labels were live answers both polarities by an
     O(#chains) compare; one frozen without them runs the scratch BFS. *)
  let reach f su sv =
    match f.f_index with
    | Some fi ->
      let p = pa_int fi.fi_place sv in
      p >= 0 && label_le (pa_arr fi.fi_labels su) p
    | None -> reachable_slots f su sv

  let label_reachable f u v =
    let su = slot_of f u and sv = slot_of f v in
    if su < 0 || sv < 0 || su = sv || pa_int f.f_rank su >= pa_int f.f_rank sv
    then Some false
    else
      match f.f_index with
      | Some fi ->
        let p = pa_int fi.fi_place sv in
        Some (p >= 0 && label_le (pa_arr fi.fi_labels su) p)
      | None -> None

  let query f e1 e2 =
    let s1 = slot_of f e1 and s2 = slot_of f e2 in
    if s1 < 0 then Error e1
    else if s2 < 0 then Error e2
    else if s1 = s2 then Ok Order.Same
    else begin
      let r1 = pa_int f.f_rank s1 and r2 = pa_int f.f_rank s2 in
      if r1 < r2 then begin
        if reach f s1 s2 then Ok Order.Before else Ok Order.Concurrent
      end
      else if r2 < r1 then begin
        if reach f s2 s1 then Ok Order.After else Ok Order.Concurrent
      end
      else Ok Order.Concurrent
    end

  let chain f id =
    let s = slot_of f id in
    if s < 0 || not f.f_digests then None
    else
      let c = pa_chain f.f_chains s in
      Some (if c.c_len = 0 then { no_chain with c_id = id } else c)

  let commitment f id = Option.map Chain.commitment (chain f id)
  let chain_length f id = Option.map Chain.length (chain f id)
end
