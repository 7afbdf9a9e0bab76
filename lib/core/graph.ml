(* Process-wide mirrors of the per-graph counters, for the metrics plane.
   A process may host several graphs (tests, sim benches) and the counters
   then aggregate across them; the gauges track whichever graph mutated
   last, which in kronosd is the one replica engine. *)
module M = struct
  let scope = Kronos_metrics.scope "engine"
  let queries = Kronos_metrics.counter scope "queries_total"
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
   [Bytes.t]: a 44-byte record per link holding exactly what a snapshot
   persists of it — predecessor id (i64), predecessor position (u32: a
   snapshot stores chain lengths as u32) and predecessor head (32 bytes).
   Partners and earlier heads are not stored; [partner] and [refold]
   recompute the few a prover emits.  The link count is not in the store:
   the store's [link_counts] field holds it beside.

   Views share a store by pointer and read it below their own count, so
   no byte of a link a view can read is ever written again: links are
   only appended, an append writes past every published count, a full
   store grows into a fresh copy, and a collected slot drops its store
   for [empty] instead of resetting it. *)
module Links = struct
  let record = 44
  let head_off = 12
  let max_count = 0xFFFF_FFFF

  (* The shared store of every slot without links.  Never written: the
     first [push] allocates. *)
  let empty = Bytes.empty

  let[@inline] off i = record * i

  let pred st i = Event_id.of_int64 (Bytes.get_int64_le st (off i))

  let pred_pos st i =
    Int32.to_int (Bytes.get_int32_le st (off i + 8)) land max_count

  let pred_head st i = Bytes.sub_string st (off i + head_off) Chain_digest.length

  (* Append link [n] to a store holding [n] links; the result is [st]
     itself or, when full, a grown copy.  A store grows by a quarter, and
     by one link while a quarter rounds below that, so chains up to 8
     links fit exactly: slack stays out of the short chains that dominate
     real graphs, and under a quarter of a long one.  (On G(10k,50k),
     growing by half past 4 links costs 65 B per link, and doubling 74 B,
     against 61 B.) *)
  let push st n ~pred ~pos ~head =
    let st =
      if off (n + 1) <= Bytes.length st then st
      else begin
        let st' = Bytes.create (off (n + max 1 (n / 4))) in
        Bytes.blit st 0 st' 0 (off n);
        st'
      end
    in
    let o = off n in
    Bytes.set_int64_le st o (Int64.of_int (pred : Event_id.t :> int));
    Bytes.set_int32_le st (o + 8) (Int32.of_int pos);
    Bytes.blit_string head 0 st (o + head_off) Chain_digest.length;
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
   the link count and head ("" while the count is 0) of that moment. *)
type chain = {
  c_id : Event_id.t;
  c_store : Bytes.t;
  c_len : int;
  c_head : string;
}

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

(* Every query-visible per-slot field, of the live graph and of its views
   alike, is a two-level chunked array: slot [s] sits at index
   [s land chunk_mask] of a chunk of [chunk_size] entries, chunks hang off
   blocks of [chunk_size] chunks, and a small root lists the blocks.  The
   live graph owns its blocks and chunks and writes them in place; a view
   owns copies, never written once published, and shares each with every
   later view until one of its slots changes.  At 128 entries every array
   a publish allocates stays a minor-heap allocation (the root too, up to
   4M slots), where a one-level spine of a 100k-slot graph would be a
   major-heap allocation costing more GC work per publish than the rest
   of it.  A chunk may be [||] where no read reaches it: past the store's
   slot count, and in a commitment-chain field no link was sealed into
   (see [link_count]). *)
let chunk_bits = 7
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1
let block_bits = 2 * chunk_bits (* slots per block, as a shift *)

type 'a pa = 'a array array array

(* Chunk [c] (slots [c * chunk_size] onward). *)
let[@inline] pa_chunk_at (root : 'a pa) c =
  Array.unsafe_get (Array.unsafe_get root (c lsr chunk_bits)) (c land chunk_mask)

(* Reads of slot [s], below the store's slot count.  Unchecked: the root
   covers every such slot, blocks have exactly [chunk_size] entries, such
   a slot's chunk is allocated, and the index is masked.  [pa_int] and
   [pa_arr] are typed, so the search's loads are direct rather than the
   generic float-array test [pa_get] pays. *)
let[@inline] pa_int (root : int pa) s =
  Array.unsafe_get (pa_chunk_at root (s lsr chunk_bits)) (s land chunk_mask)

let[@inline] pa_arr (root : 'a array pa) s =
  Array.unsafe_get (pa_chunk_at root (s lsr chunk_bits)) (s land chunk_mask)

let[@inline] pa_get (root : 'a pa) s =
  Array.unsafe_get (pa_chunk_at root (s lsr chunk_bits)) (s land chunk_mask)

(* [root] covering slots [0, cap): blocks appended as needed and, given
   [fill], a fresh chunk of it for each chunk from slot [from] on.  [from]
   and [cap] are multiples of [chunk_size]. *)
let pa_grow ?fill (root : 'a pa) ~from ~cap =
  let blocks = (cap + (1 lsl block_bits) - 1) lsr block_bits in
  let root =
    if Array.length root >= blocks then root
    else
      Array.init blocks (fun b ->
          if b < Array.length root then root.(b) else Array.make chunk_size [||])
  in
  Option.iter
    (fun (fill : 'a) ->
      for c = from lsr chunk_bits to (cap lsr chunk_bits) - 1 do
        root.(c lsr chunk_bits).(c land chunk_mask) <- Array.make chunk_size fill
      done)
    fill;
  root

(* The chain-label index's per-slot fields (DESIGN.md §15): [place] is a
   slot's placement, the one word [pack chain pos], or -1 off every chain;
   [lbl] its label, a chain-sorted vector of the same words. *)
type labels = { place : int pa; lbl : int array pa }

(* What the live graph's reads add to the store: the edges staged since
   the last [seal] or [abort], as flattened (su, sv) pairs in staging
   order (in the adjacency already, not yet in the commitment chains or
   the labels), and the graph's work counters.  A view has none, so its
   reads write nothing outside the calling domain's search scratch. *)
type writer = {
  staged : Int_vec.t;
  mutable queries : int;
  mutable traversals : int;
  mutable visited_total : int;
  mutable rank_pruned : int;
  mutable label_hits : int;
  mutable label_misses : int;
}

(* The query-visible state over slots [0, n): the live graph's own, which
   it mutates, or a view's copy (see [freeze]), which nobody mutates and
   any domain may read.  Every per-slot value is immutable once
   installed: an edge, an abort or a collection installs a new adjacency
   array, a sealed link a new count and head (and a new store when the
   old one is full), a label change a new label array.  So a view shares
   values with the live graph by pointer, and a shallow copy of a chunk
   copies its slots.

   [gen] holds liveness and generation in one word: the generation of a
   live slot, and the complement ([lnot], negative) of the generation its
   next tenant takes for a free one, so no identifier's generation
   matches a free slot.  [succ] and [pred] are the adjacency ([pred]'s
   length is the in-degree).  A slot's commitment chain is its link store
   ([Links.empty] while it has none), its link count and its head ("" while
   the count is 0, when the commitment is the identity digest, recomputed
   from the identifier on demand — it encodes (slot, gen) injectively).
   Those three fields' chunk is allocated by the first link sealed into
   one of its slots, so slots without links cost them nothing, and their
   roots are [[||]] when digests are off.  [labels] is [Some] exactly
   while the chain labels are live. *)
type store = {
  mutable version : int;
  mutable n : int;
  mutable live : int;
  mutable edges : int;
  digests : bool;
  mutable gen : int pa;
  mutable rank : int pa;
  mutable succ : int array pa;
  mutable pred : int array pa;
  mutable links : Bytes.t pa;
  mutable link_counts : int pa;
  mutable heads : string pa;
  mutable labels : labels option;
  writer : writer option;
}

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

(* Per-domain search scratch, shared by every reachability search a
   domain runs, on the live graph and on views of any graph alike:
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
   domain's scratch: the one reachability search, for the live graph's
   queries and cycle checks and for views alike.  Every path [src ⇝ dst]
   climbs strictly in rank, so the search is exact within the open window
   (rank src, rank dst), and an empty window refutes it.  Degree guards
   make the common fresh-event cases O(1): a source with no outgoing edge
   reaches nothing, a destination with no incoming edge is unreachable.

   The search is level-synchronous on both sides and each round expands the
   smaller frontier.  Levels are expanded completely even once a meeting
   point is found: the visited sets then depend only on the {e sets} of
   edges, not on adjacency-list order, which keeps [visited_total]
   deterministic across snapshot restores (reverse adjacency is rebuilt in
   slot order there, losing the original interleaving).

   Work accounting, on the live graph only: every traversal adds to
   [visited_total] the number of distinct slots marked, endpoints included
   (the source and destination seed their sides).  Every marked slot is
   also queued, so that number is the count of queue cells the two sides
   filled. *)
let search st src dst =
  if src = dst then true
  else begin
    let rank = st.rank in
    let rlo = pa_int rank src and rhi = pa_int rank dst in
    if rlo >= rhi then false
    else if
      Array.length (pa_arr st.succ src) = 0
      || Array.length (pa_arr st.pred dst) = 0
    then false
    else begin
      let counted = Option.is_some st.writer in
      let sc = scratch_for st.n in
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
        if !ft - !fh <= !bh - !bt then expand st.succ 1 fh ft fmark bmark
        else begin
          if counted then Kronos_metrics.Counter.incr M.bidir;
          expand st.pred (-1) bh bt bmark fmark
        end
      done;
      (match st.writer with
       | Some w ->
         let visited = !ft + (last - !bt) in
         w.traversals <- w.traversals + 1;
         w.visited_total <- w.visited_total + visited;
         Kronos_metrics.Counter.incr M.traversals;
         Kronos_metrics.Counter.add M.visited visited
       | None -> ());
      !found
    end
  end

(* Slot [s]'s link count: 0 in a chunk no link was sealed into. *)
let link_count st s =
  let c = pa_chunk_at st.link_counts (s lsr chunk_bits) in
  if Array.length c = 0 then 0 else Array.unsafe_get c (s land chunk_mask)

(* The reads, written once over a store: the live graph runs them on its
   own store (see [view]), counting and minding its staged edges; a view
   runs them on its copy.  Each is allocation-free outside its result. *)
module Frozen = struct
  type g = store

  let version st = st.version
  let live_count st = st.live
  let edge_count st = st.edges
  let digests_enabled st = st.digests

  (* [id]'s slot when [id] is live in [st], else -1. *)
  let slot_of st id =
    let s = Event_id.slot id in
    if id <> Event_id.none && s < st.n && pa_int st.gen s = Event_id.gen id
    then s
    else -1

  let is_live st id = slot_of st id >= 0

  let rank st id =
    let s = slot_of st id in
    if s < 0 then None else Some (pa_int st.rank s)

  let count_pruned st k =
    match st.writer with
    | Some w ->
      w.rank_pruned <- w.rank_pruned + k;
      Kronos_metrics.Counter.add M.rank_pruned k
    | None -> ()

  (* The label answer to [u ⇝ v] over the sealed edges: [Some] while labels
     are live — both ways, in O(#chains), since a destination off every
     chain has no sealed predecessor at all — and [None] without them.
     Staged edges only add paths, so while a batch is staged only a
     positive answer still holds. *)
  let label_answer st su sv =
    match st.labels with
    | None -> None
    | Some l ->
      let p = pa_int l.place sv in
      if p >= 0 && label_le (pa_arr l.lbl su) p then Some true
      else (
        match st.writer with
        | Some w when not (Int_vec.is_empty w.staged) -> None
        | Some _ | None -> Some false)

  (* [su ⇝ sv].  A negative answer by rank comparison alone: u ⇝ v
     requires rank u < rank v, so rank u >= rank v (distinct slots)
     refutes it in O(1).  The labels answer the remaining direction when
     they can; otherwise (labels dropped, [max_chains = 0], or no label
     path while edges are staged) the search, which sees the staged
     adjacency, answers. *)
  let reach st su sv =
    if su = sv then false
    else if pa_int st.rank su >= pa_int st.rank sv then begin
      count_pruned st 1;
      false
    end
    else
      let ans = label_answer st su sv in
      (match st.writer, ans with
       | Some w, Some _ ->
         w.label_hits <- w.label_hits + 1;
         Kronos_metrics.Counter.incr M.label_hits
       | Some w, None ->
         w.label_misses <- w.label_misses + 1;
         Kronos_metrics.Counter.incr M.label_misses
       | None, _ -> ());
      match ans with Some ans -> ans | None -> search st su sv

  (* Label-only probe for provers and planners: [Some ans] when rank or
     label decides [u ⇝ v] without traversing, [None] when only a search
     could tell.  Deliberately counter-free — a prover consults it per
     candidate edge and would otherwise drown the query-path hit-rate
     signal. *)
  let label_reachable st u v =
    let su = slot_of st u and sv = slot_of st v in
    if su < 0 || sv < 0 || su = sv || pa_int st.rank su >= pa_int st.rank sv
    then Some false
    else label_answer st su sv

  (* The rank comparison eliminates at least one direction of every query
     outright: at most one of e1 ⇝ e2 / e2 ⇝ e1 is compatible with the
     rank order, and with equal ranks (distinct slots) both are
     refuted. *)
  let query st e1 e2 =
    let s1 = slot_of st e1 and s2 = slot_of st e2 in
    if s1 < 0 then Error e1
    else if s2 < 0 then Error e2
    else if s1 = s2 then Ok Order.Same
    else begin
      let r1 = pa_int st.rank s1 and r2 = pa_int st.rank s2 in
      if r1 < r2 then begin
        count_pruned st 1;
        if reach st s1 s2 then Ok Order.Before else Ok Order.Concurrent
      end
      else if r2 < r1 then begin
        count_pruned st 1;
        if reach st s2 s1 then Ok Order.After else Ok Order.Concurrent
      end
      else begin
        count_pruned st 2;
        Ok Order.Concurrent
      end
    end

  let query_order st pairs =
    let rec check = function
      | [] -> None
      | (e1, e2) :: rest ->
        if not (is_live st e1) then Some e1
        else if not (is_live st e2) then Some e2
        else check rest
    in
    match check pairs with
    | Some e -> Error (Order.Unknown_event e)
    | None ->
      let answer (e1, e2) =
        (match st.writer with
         | Some w ->
           w.queries <- w.queries + 1;
           Kronos_metrics.Counter.incr M.queries
         | None -> ());
        match query st e1 e2 with
        | Ok r -> r
        | Error _ -> assert false (* all arguments were checked live *)
      in
      Ok (List.map answer pairs)

  let chain st id =
    let s = slot_of st id in
    if s < 0 || not st.digests then None
    else
      let n = link_count st s in
      Some
        {
          c_id = id;
          c_store = (if n = 0 then Links.empty else pa_get st.links s);
          c_len = n;
          c_head = (if n = 0 then "" else pa_get st.heads s);
        }

  let commitment st id = Option.map Chain.commitment (chain st id)
  let chain_length st id = Option.map Chain.length (chain st id)
end

(* Chain bookkeeping of the label index (DESIGN.md §15), meaningful while
   the store's labels are live.  Live events are partitioned greedily into
   at most [max_chains] chains at edge time; every member of a chain
   reaches all later members (consecutive members are joined by a direct
   edge).  A slot's label holds the {e lowest} position in each chain
   reachable from it (self included, so a placed slot's label holds its
   own placement), and [u ⇝ v] iff [u]'s label holds an entry of [v]'s
   chain at or below [v]'s placement.  Labels are exact over the sealed
   edges — kept so by merge propagation when [seal] admits an edge; a
   staged edge never touches them.  The graph keeps labels only while
   every live slot with an in-edge is on a chain (see [drop_labels]), so a
   destination off every chain has no predecessor, and both answers of
   every query are O(#chains) compares. *)
type index = {
  chain_len : Int_vec.t;          (* per chain: members ever appended *)
  chain_live : Int_vec.t;         (* per chain: live members *)
  chain_tail : Int_vec.t;         (* per chain: newest member, -1 if empty *)
  free_chains : Int_vec.t;        (* fully-dead chains, reusable *)
  mutable buf : int array;        (* merge scratch *)
}

type t = {
  st : store;
  w : writer;                    (* [st]'s writer *)
  mutable refcount : int array;  (* per slot, meaningful while live *)
  free : Int_vec.t;              (* stack of reusable slots *)
  (* Topological rank index (Pearce–Kelly / Haeupler–Sen–Tarjan style):
     every edge u -> v satisfies rank u < rank v, hence by transitivity
     u ⇝ v implies rank u < rank v.  Ranks are sparse integers (not a
     dense permutation): fresh events take increasing ranks from
     [next_rank], and an edge insertion that violates the order relabels
     only the affected region forward of the new target.  The
     contrapositive answers reachability negatively in O(1) and bounds
     every traversal to the open rank window (rank src, rank dst). *)
  mutable next_rank : int;       (* strictly above every live rank *)
  (* Work stack of the three walks that never nest: [relabel]'s
     (slot, floor) pairs, flattened; [collect]'s cascade; label
     propagation's worklist.  Reachability searches use the per-domain
     [scratch] instead. *)
  stack : Int_vec.t;
  mutable rank_relabels : int;
  mutable digest_folds : int;
  (* Epoch tracking for the multicore query plane (DESIGN.md §14): the
     store's [version] is bumped on every mutation a read view could
     observe (event creation, collection, edge staging and abort) and never
     on invisible ones (refcount moves that do not collect).  [dirty] lists
     the chunks holding a slot whose store value changed since the last
     [freeze], each once: its byte in [dirty_flags] is set while it is
     listed.  A freeze copies only those chunks and shares the rest with
     the previous view. *)
  mutable dirty_flags : Bytes.t;
  dirty : Int_vec.t;
  mutable frozen_cache : store option;
  max_chains : int;
  ix : index;
  mutable label_rebuilds : int;
}

let max_gen = (1 lsl 22) - 1

let default_max_chains = 64

let no_labels = { place = [||]; lbl = [||] }

let new_labels cap =
  {
    place = pa_grow [||] ~from:0 ~cap ~fill:(-1);
    lbl = pa_grow [||] ~from:0 ~cap ~fill:[||];
  }

let create ?(initial_capacity = 1024) ?(digests = true)
    ?(max_chains = default_max_chains) () =
  if max_chains > max_chain_ids then
    invalid_arg "Graph.create: max_chains above 2^22";
  (* capacity is a whole number of chunks *)
  let cap = (max initial_capacity 16 + chunk_mask) land lnot chunk_mask in
  let max_chains = max 0 max_chains in
  Kronos_metrics.Gauge.set M.labels_live (if max_chains > 0 then 1 else 0);
  let w =
    {
      staged = Int_vec.create ();
      queries = 0;
      traversals = 0;
      visited_total = 0;
      rank_pruned = 0;
      label_hits = 0;
      label_misses = 0;
    }
  in
  let grow ?fill () = pa_grow [||] ~from:0 ~cap ?fill in
  {
    st =
      {
        version = 0;
        n = 0;
        live = 0;
        edges = 0;
        digests;
        gen = grow ~fill:(-1) ();
        rank = grow ~fill:0 ();
        succ = grow ~fill:[||] ();
        pred = grow ~fill:[||] ();
        links = (if digests then grow () else [||]);
        link_counts = (if digests then grow () else [||]);
        heads = (if digests then grow () else [||]);
        labels = (if max_chains > 0 then Some (new_labels cap) else None);
        writer = Some w;
      };
    w;
    refcount = Array.make cap 0;
    free = Int_vec.create ();
    next_rank = 0;
    stack = Int_vec.create ();
    rank_relabels = 0;
    digest_folds = 0;
    dirty_flags = Bytes.make (cap lsr chunk_bits) '\000';
    dirty = Int_vec.create ();
    frozen_cache = None;
    max_chains;
    ix =
      {
        chain_len = Int_vec.create ();
        chain_live = Int_vec.create ();
        chain_tail = Int_vec.create ();
        free_chains = Int_vec.create ();
        buf = [||];
      };
    label_rebuilds = 0;
  }

let capacity g = Array.length g.refcount
let live_count g = g.st.live
let edge_count g = g.st.edges
let traversal_count g = g.w.traversals
let visited_total g = g.w.visited_total
let query_count g = g.w.queries
let rank_relabel_count g = g.rank_relabels
let rank_pruned_count g = g.w.rank_pruned
let digests_enabled g = g.st.digests
let digest_fold_count g = g.digest_folds
let label_hit_count g = g.w.label_hits
let label_miss_count g = g.w.label_misses
let label_rebuild_count g = g.label_rebuilds
let max_chains g = g.max_chains
let labels_live g = Option.is_some g.st.labels
let version g = g.st.version
let view g = g.st

let chain_count g =
  if labels_live g then
    Int_vec.length g.ix.chain_len - Int_vec.length g.ix.free_chains
  else 0

(* Record a view-visible write to slot [s]: the next [freeze] copies its
   chunk instead of sharing the previous view's. *)
let touch g s =
  let c = s lsr chunk_bits in
  if Bytes.unsafe_get g.dirty_flags c = '\000' then begin
    Bytes.unsafe_set g.dirty_flags c '\001';
    Int_vec.push g.dirty c
  end

(* Install [v] as slot [s]'s value of the live store's field [root]. *)
let set g (root : 'a pa) s (v : 'a) =
  (pa_chunk_at root (s lsr chunk_bits)).(s land chunk_mask) <- v;
  touch g s

let grow g =
  let st = g.st in
  let old = capacity g in
  let cap = 2 * old in
  let grow ?fill root = pa_grow root ~from:old ~cap ?fill in
  let refcount = Array.make cap 0 in
  Array.blit g.refcount 0 refcount 0 old;
  g.refcount <- refcount;
  st.gen <- grow st.gen ~fill:(-1);
  st.rank <- grow st.rank ~fill:0;
  st.succ <- grow st.succ ~fill:[||];
  st.pred <- grow st.pred ~fill:[||];
  if st.digests then begin
    st.links <- grow st.links;
    st.link_counts <- grow st.link_counts;
    st.heads <- grow st.heads
  end;
  Option.iter
    (fun l ->
      st.labels <-
        Some { place = grow l.place ~fill:(-1); lbl = grow l.lbl ~fill:[||] })
    st.labels;
  g.dirty_flags <- Bytes.extend g.dirty_flags 0 (old lsr chunk_bits);
  Bytes.fill g.dirty_flags (old lsr chunk_bits) (old lsr chunk_bits) '\000'

(* Install or drop ([None]) the labels. *)
let set_labels g l =
  g.st.labels <- l;
  Kronos_metrics.Gauge.set M.labels_live (if Option.is_some l then 1 else 0);
  Kronos_metrics.Gauge.set M.chains (chain_count g)

(* Leave label mode (DESIGN.md §15): some live slot with an in-edge could
   not be placed on a chain, so labels could no longer answer queries to
   it.  Rather than keep maintaining labels that decide only part of the
   queries, free every label and placement; every query then runs
   rank-then-search, as with [max_chains = 0].  Views published before keep
   their labels. *)
let drop_labels g = set_labels g None

(* Labels come back only at zero edges, where every slot is trivially
   placed: fresh, empty labels and chains.  Every chunk is dirty, so the
   next freeze copies none of an earlier index's from the previous
   view. *)
let revive_labels g =
  if g.st.edges = 0 && g.max_chains > 0 && not (labels_live g) then begin
    let ix = g.ix in
    List.iter Int_vec.clear
      [ ix.chain_len; ix.chain_live; ix.chain_tail; ix.free_chains ];
    for c = 0 to ((g.st.n + chunk_mask) lsr chunk_bits) - 1 do
      touch g (c lsl chunk_bits)
    done;
    set_labels g (Some (new_labels (capacity g)))
  end

(* Creation, release, [freeze] and [to_snapshot] see only sealed state:
   they refuse to run between a batch's first staged edge and its [seal]
   or [abort]. *)
let check_unstaged g what =
  if not (Int_vec.is_empty g.w.staged) then
    invalid_arg ("Graph." ^ what ^ ": edges are staged")

let slot g id = Frozen.slot_of g.st id
let is_live g id = Frozen.is_live g.st id
let rank g id = Frozen.rank g.st id
let id_of_slot g s = Event_id.make ~slot:s ~gen:(pa_int g.st.gen s)

let create_event g =
  check_unstaged g "create_event";
  let st = g.st in
  let s =
    if not (Int_vec.is_empty g.free) then Int_vec.pop g.free
    else begin
      if st.n = capacity g then grow g;
      let s = st.n in
      st.n <- s + 1;
      s
    end
  in
  (* a free slot was reset when collected: no edges, links or label; its
     word holds the complement of the generation it takes now *)
  set g st.gen s (lnot (pa_int st.gen s));
  g.refcount.(s) <- 1;
  (* fresh events take increasing ranks, so edges that follow creation
     order — the common case — never trigger a relabel *)
  set g st.rank s g.next_rank;
  g.next_rank <- g.next_rank + 1;
  st.live <- st.live + 1;
  st.version <- st.version + 1;
  Kronos_metrics.Gauge.set M.live st.live;
  id_of_slot g s

let refcount g id =
  let s = slot g id in
  if s < 0 then None else Some g.refcount.(s)

let acquire_ref g id =
  let s = slot g id in
  s >= 0
  && begin
    g.refcount.(s) <- g.refcount.(s) + 1;
    true
  end

(* [a] with [x] appended: adjacency arrays are never written in place. *)
let append (a : int array) x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 n;
  b

(* [a] without its first [x], the last entry moved into its cell. *)
let remove (a : int array) x =
  let n = Array.length a in
  let rec find i = if i = n || a.(i) = x then i else find (i + 1) in
  let i = find 0 in
  if i = n then a
  else begin
    let b = Array.sub a 0 (n - 1) in
    if i < n - 1 then b.(i) <- a.(n - 1);
    b
  end

let drop_last (a : int array) = Array.sub a 0 (Array.length a - 1)

(* Reclaim the cascade of vertices reachable from slot [s] that have zero
   references and zero in-degree, depth-first on the work stack.  Removing
   vertices and edges only removes paths, so the rank invariant survives
   collection untouched; the freed slot keeps its stale rank until
   [create_event] overwrites it. *)
let collect g s =
  let st = g.st in
  st.version <- st.version + 1;
  let stack = g.stack in
  Int_vec.clear stack;
  Int_vec.push stack s;
  let collected = ref 0 in
  while not (Int_vec.is_empty stack) do
    let u = Int_vec.pop stack in
    st.live <- st.live - 1;
    incr collected;
    let kill w =
      st.edges <- st.edges - 1;
      let preds = remove (pa_arr st.pred w) u in
      set g st.pred w preds;
      if Array.length preds = 0 && g.refcount.(w) = 0 then
        Int_vec.push stack w
    in
    Array.iter kill (pa_arr st.succ u);
    (* in-degree zero: [u]'s predecessors are none already *)
    set g st.succ u [||];
    (* Chain links of still-live successors keep referencing this event by
       identifier + head, so certificates through committed history stay
       checkable; only this event's own chain is dropped. *)
    if st.digests && link_count st u > 0 then begin
      set g st.links u Links.empty;
      set g st.link_counts u 0;
      set g st.heads u ""
    end;
    (* Retire the slot from the chain-decomposition index.  Members die in
       position order (strict topological GC reclaims predecessors first),
       so a chain empties prefix-first and is recycled only once wholly
       dead; and no surviving label can point at a dead member — a label
       entry witnesses ancestorship, and ancestors are collected first. *)
    Option.iter
      (fun l ->
        let ix = g.ix in
        let w = pa_int l.place u in
        if w >= 0 then begin
          let c = entry_chain w in
          set g l.place u (-1);
          let remaining = Int_vec.get ix.chain_live c - 1 in
          Int_vec.set ix.chain_live c remaining;
          if remaining = 0 then begin
            Int_vec.set ix.chain_len c 0;
            Int_vec.set ix.chain_tail c (-1);
            Int_vec.push ix.free_chains c
          end
        end;
        set g l.lbl u [||])
      st.labels;
    (* Free the slot for its next generation, or retire it permanently if
       its generation space is exhausted. *)
    let gen = pa_int st.gen u in
    if gen < max_gen then begin
      set g st.gen u (lnot (gen + 1));
      Int_vec.push g.free u
    end
    else set g st.gen u (lnot gen)
  done;
  revive_labels g;
  Kronos_metrics.Gauge.set M.live st.live;
  Kronos_metrics.Gauge.set M.edges st.edges;
  !collected

let release_ref g id =
  check_unstaged g "release_ref";
  let s = slot g id in
  if s < 0 || g.refcount.(s) = 0 then
    (* zero references: the caller holds no handle to release (the event
       is only pinned by the graph itself) — treat like a stale
       identifier *)
    None
  else begin
    g.refcount.(s) <- g.refcount.(s) - 1;
    if g.refcount.(s) = 0 && Array.length (pa_arr g.st.pred s) = 0 then
      Some (collect g s)
    else Some 0
  end

(* ------------------------------------------------------------------ *)
(* Chain-decomposition reachability labels (DESIGN.md §15).            *)
(* ------------------------------------------------------------------ *)

let ensure_label_buf ix n =
  if Array.length ix.buf < n then
    ix.buf <- Array.make (max n (2 * Array.length ix.buf)) 0;
  ix.buf

(* Pointwise-min union of [src] into slot [s]'s label.  Returns [true] iff
   the label changed (some entry decreased or appeared) — the propagation
   worklist only follows actual changes, which also bounds the cascade:
   entries decrease monotonically toward 0.  Within one chain the lower
   position is the lower packed word.  An empty label simply takes [src]
   by pointer: label arrays are never mutated. *)
let merge_into g l s src =
  let a = pa_arr l.lbl s in
  let la = Array.length a and lb = Array.length src in
  if lb = 0 then false
  else if la = 0 then begin
    set g l.lbl s src;
    true
  end
  else begin
    let buf = ensure_label_buf g.ix (la + lb) in
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
    if !changed then set g l.lbl s (Array.sub buf 0 !k);
    !changed
  end

(* Allocate a chain: reuse a wholly-dead one first, mint a new id under the
   cap, or give up (-1) once saturated. *)
let alloc_chain g =
  let ix = g.ix in
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
let assign_slot g l s c =
  let ix = g.ix in
  let pos = Int_vec.get ix.chain_len c in
  if pos >= max_chain_len then false
  else begin
    let w = pack c pos in
    set g l.place s w;
    Int_vec.set ix.chain_len c (pos + 1);
    Int_vec.set ix.chain_live c (Int_vec.get ix.chain_live c + 1);
    Int_vec.set ix.chain_tail c s;
    (* self entry: min-merge is safe — [s] cannot already reach an earlier
       member of [c] (that member would reach the tail, which reaches [s],
       closing a cycle) *)
    ignore (merge_into g l s [| w |]);
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
let label_admit g l su sv =
  let placed =
    pa_int l.place sv >= 0
    ||
    let wu = pa_int l.place su in
    if wu >= 0 && Int_vec.get g.ix.chain_tail (entry_chain wu) = su then
      assign_slot g l sv (entry_chain wu)
    else begin
      let c = alloc_chain g in
      (* a fresh chain is empty, so both appends below succeed *)
      c >= 0
      && begin
        if wu < 0 then ignore (assign_slot g l su c);
        assign_slot g l sv c
      end
    end
  in
  if not placed then drop_labels g
  else if merge_into g l su (pa_arr l.lbl sv) then begin
    let stack = g.stack in
    Int_vec.clear stack;
    Int_vec.push stack su;
    while not (Int_vec.is_empty stack) do
      let w = Int_vec.pop stack in
      let lbl = pa_arr l.lbl w in
      Array.iter
        (fun p -> if merge_into g l p lbl then Int_vec.push stack p)
        (pa_arr g.st.pred w)
    done
  end

(* Live slots in (rank, slot) order: topological, by the rank
   invariant. *)
let rank_order g =
  let st = g.st in
  let order = ref [] in
  for s = st.n - 1 downto 0 do
    if pa_int st.gen s >= 0 then order := s :: !order
  done;
  let order = Array.of_list !order in
  Array.sort
    (fun a b ->
      let c = compare (pa_int st.rank a) (pa_int st.rank b) in
      if c <> 0 then c else compare a b)
    order;
  order

(* Exact label recomputation: live slots in decreasing (rank, slot) order —
   reverse topological by the rank invariant — each taking its self entry
   plus the min-union of its direct successors' finished labels.  Exact
   labels are a pure function of (adjacency, chain assignment), which is
   why snapshots persist only the chains: every restore recomputes
   bit-identical labels. *)
let compute_labels g l =
  g.label_rebuilds <- g.label_rebuilds + 1;
  Kronos_metrics.Counter.incr M.label_rebuilds;
  let order = rank_order g in
  for i = Array.length order - 1 downto 0 do
    let v = order.(i) in
    set g l.lbl v [||];
    let w = pa_int l.place v in
    if w >= 0 then ignore (merge_into g l v [| w |]);
    Array.iter
      (fun w -> ignore (merge_into g l v (pa_arr l.lbl w)))
      (pa_arr g.st.succ v)
  done

let reachable g u v =
  let su = slot g u and sv = slot g v in
  su >= 0 && sv >= 0 && Frozen.reach g.st su sv

let label_reachable g u v = Frozen.label_reachable g.st u v
let query g e1 e2 = Frozen.query g.st e1 e2
let commitment g id = Frozen.commitment g.st id
let chain_length g id = Frozen.chain_length g.st id
let chain g id = Frozen.chain g.st id

(* Slot [s]'s current chain head: its commitment. *)
let head_of_slot g s =
  if link_count g.st s = 0 then Chain_digest.init (id_of_slot g s)
  else pa_get g.st.heads s

(* Fold one link into slot [v]'s chain, installing its next store, count
   and head: two SHA-256 compressions (partner digest + chain fold). *)
let append_link g v ~pred ~pos ~pred_head =
  let st = g.st in
  let n = link_count st v in
  if n = 0 then begin
    (* the chunk's first link allocates its chain fields *)
    let c = v lsr chunk_bits in
    let alloc root fill =
      if Array.length (pa_chunk_at root c) = 0 then
        root.(c lsr chunk_bits).(c land chunk_mask) <- Array.make chunk_size fill
    in
    alloc st.links Links.empty;
    alloc st.link_counts 0;
    alloc st.heads ""
  end;
  let partner = Chain_digest.link_partner pred pred_head in
  set g st.heads v (Chain_digest.fold_link (head_of_slot g v) partner);
  set g st.links v (Links.push (pa_get st.links v) n ~pred ~pos ~head:pred_head);
  set g st.link_counts v (n + 1);
  g.digest_folds <- g.digest_folds + 2;
  Kronos_metrics.Counter.add M.digest_folds 2

(* The link for the admitted edge su -> sv. *)
let fold_edge g su sv =
  append_link g sv ~pred:(id_of_slot g su) ~pos:(link_count g.st su)
    ~pred_head:(head_of_slot g su)

(* Stage [su -> sv]: adjacency only.  [seal] folds its commitment link
   and admits it to the labels; [abort] removes it. *)
let stage_edge g su sv =
  let st = g.st in
  (* A link count past the u32 a snapshot holds it in would need ~176 GiB
     of store; refuse it before mutating anything.  Every staged edge
     into [sv] is counted in its in-degree, so [seal] can never overflow
     the count. *)
  if st.digests
     && link_count st sv + Array.length (pa_arr st.pred sv)
        >= Links.max_count
  then invalid_arg "Graph.add_edge: commitment chain full";
  set g st.succ su (append (pa_arr st.succ su) sv);
  set g st.pred sv (append (pa_arr st.pred sv) su);
  st.edges <- st.edges + 1;
  st.version <- st.version + 1;
  Int_vec.push g.w.staged su;
  Int_vec.push g.w.staged sv;
  Kronos_metrics.Gauge.set M.edges st.edges

(* Restore the invariant after admitting an edge whose target ranked at or
   below its source: push every forward path out of [sv] strictly above
   [floor].  Depth-first on an explicit stack of (slot, floor) pairs; a slot
   is re-examined only when a later visit raises its floor, so the work is
   confined to the affected region (Pearce–Kelly's discovery set).  The
   caller has already refuted a cycle, so the cascade terminates. *)
let relabel g sv floor =
  g.rank_relabels <- g.rank_relabels + 1;
  Kronos_metrics.Counter.incr M.rank_relabels;
  let st = g.st in
  let stack = g.stack in
  Int_vec.clear stack;
  Int_vec.push stack sv;
  Int_vec.push stack floor;
  while not (Int_vec.is_empty stack) do
    let floor = Int_vec.pop stack in
    let w = Int_vec.pop stack in
    if pa_int st.rank w <= floor then begin
      let r = floor + 1 in
      set g st.rank w r;
      if r >= g.next_rank then g.next_rank <- r + 1;
      Array.iter
        (fun x ->
          Int_vec.push stack x;
          Int_vec.push stack r)
        (pa_arr st.succ w)
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
  let rank = g.st.rank in
  if pa_int rank su < pa_int rank sv then begin
    (* ranks already agree: v ⇝ u is impossible, no cycle, O(1) *)
    stage_edge g su sv;
    true
  end
  else if search g.st sv su then false
  else begin
    relabel g sv (pa_int rank su);
    stage_edge g su sv;
    true
  end

let try_add_edge g u v =
  let su = slot g u and sv = slot g v in
  if su < 0 || sv < 0 then invalid_arg "Graph.try_add_edge: stale event";
  su <> sv && stage g su sv

(* Commit the staged edges in staging order: fold each one's commitment
   link, then admit it to the labels — what admitting the edges one at a
   time would do, so the heads and labels match.  The staging already
   bumped [version] once per edge, and a seal changes nothing a view could
   have seen in between: [freeze] refuses to run while edges are
   staged. *)
let seal g =
  let st = g.w.staged in
  let n = Int_vec.length st in
  let data = Int_vec.unsafe_data st in
  let i = ref 0 in
  while !i < n do
    let su = data.(!i) and sv = data.(!i + 1) in
    if g.st.digests then fold_edge g su sv;
    Option.iter (fun l -> label_admit g l su sv) g.st.labels;
    i := !i + 2
  done;
  Int_vec.clear st

(* Remove the staged edges newest first.  Each is then the last entry of
   its source's successors and of its target's predecessors.  Nothing else
   needs undoing: commitments and labels only ever see sealed edges. *)
let abort g =
  let st = g.st and staged = g.w.staged in
  while not (Int_vec.is_empty staged) do
    let sv = Int_vec.pop staged in
    let su = Int_vec.pop staged in
    set g st.succ su (drop_last (pa_arr st.succ su));
    set g st.pred sv (drop_last (pa_arr st.pred sv));
    st.edges <- st.edges - 1;
    st.version <- st.version + 1
  done;
  Kronos_metrics.Gauge.set M.edges st.edges

let add_edge g u v =
  let su = slot g u and sv = slot g v in
  if su < 0 || sv < 0 then invalid_arg "Graph.add_edge: stale event";
  if su = sv then invalid_arg "Graph.add_edge: self edge";
  if not (stage g su sv) then
    invalid_arg "Graph.add_edge: edge would close a cycle";
  seal g

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
  let st = g.st in
  let n = st.n in
  let live s = pa_int st.gen s >= 0 in
  let int_vec_to_array v = Array.init (Int_vec.length v) (Int_vec.get v) in
  {
    snap_next_slot = n;
    snap_refcount = Array.init n (fun s -> if live s then g.refcount.(s) else -1);
    snap_gen =
      Array.init n (fun s ->
          let w = pa_int st.gen s in
          if w >= 0 then w else lnot w);
    snap_succ = Array.init n (fun s -> Array.copy (pa_arr st.succ s));
    snap_free = int_vec_to_array g.free;
    snap_rank = Array.init n (pa_int st.rank);
    snap_next_rank = g.next_rank;
    snap_traversals = g.w.traversals;
    snap_visited_total = g.w.visited_total;
    snap_links =
      (if not st.digests then None
       else
         Some
           (Array.init n (fun s ->
                let n = link_count st s in
                let store = if n = 0 then Links.empty else pa_get st.links s in
                Array.init n (fun j ->
                    ( Event_id.to_int64 (Links.pred store j),
                      Links.pred_head store j,
                      Links.pred_pos store j )))));
    snap_version = st.version;
    snap_chains =
      (match st.labels with
       | Some l ->
         {
           cs_chain_of =
             Array.init n (fun s ->
                 let w = pa_int l.place s in
                 if w < 0 then -1 else entry_chain w);
           (* position 0 for an off-chain slot *)
           cs_chain_pos =
             Array.init n (fun s ->
                 let w = pa_int l.place s in
                 if w < 0 then 0 else entry_pos w);
           cs_chain_len = int_vec_to_array g.ix.chain_len;
           cs_free_chains = int_vec_to_array g.ix.free_chains;
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
    (fun v -> Array.iter (fun u -> fold_edge g u v) (pa_arr g.st.pred v))
    (rank_order g)

let of_snapshot ?(initial_capacity = 1024) ?(digests = true)
    ?(max_chains = default_max_chains) ?(queries = 0) s =
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
  let st = g.st in
  st.n <- n;
  for i = 0 to n - 1 do
    let rc = s.snap_refcount.(i) and gen = s.snap_gen.(i) in
    if rc < -1 then fail "bad refcount";
    if gen < 0 || gen > max_gen then fail "bad generation";
    g.refcount.(i) <- rc;
    set g st.gen i (if rc >= 0 then gen else lnot gen);
    if rc >= 0 then st.live <- st.live + 1
  done;
  (* reverse adjacency in slot-iteration order *)
  let in_degree = Array.make n 0 in
  for i = 0 to n - 1 do
    let outs = s.snap_succ.(i) in
    if Array.length outs > 0 && g.refcount.(i) < 0 then
      fail "edge out of a free slot";
    Array.iter
      (fun w ->
        if w < 0 || w >= n || g.refcount.(w) < 0 then fail "edge to a free slot";
        in_degree.(w) <- in_degree.(w) + 1)
      outs;
    set g st.succ i (Array.copy outs);
    st.edges <- st.edges + Array.length outs
  done;
  let preds = Array.map (fun d -> Array.make d 0) in_degree in
  Array.fill in_degree 0 n 0;
  for i = 0 to n - 1 do
    Array.iter
      (fun w ->
        preds.(w).(in_degree.(w)) <- i;
        in_degree.(w) <- in_degree.(w) + 1)
      s.snap_succ.(i)
  done;
  Array.iteri (set g st.pred) preds;
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
    set g st.rank i ranks.(i);
    if ranks.(i) > !max_rank then max_rank := ranks.(i)
  done;
  for i = 0 to n - 1 do
    Array.iter
      (fun w -> if ranks.(i) >= ranks.(w) then fail "rank invariant violated")
      s.snap_succ.(i)
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
  let ix = g.ix in
  let l = new_labels (capacity g) in
  let members = Array.make (max nc 1) [] in
  for i = 0 to n - 1 do
    let c = cs.cs_chain_of.(i) in
    if c < -1 || c >= nc then fail "bad chain id";
    if c >= 0 then begin
      if g.refcount.(i) < 0 then fail "chain entry on a free slot";
      let p = cs.cs_chain_pos.(i) in
      if p < 0 || p >= cs.cs_chain_len.(c) then fail "bad chain position";
      set g l.place i (pack c p);
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
          if !prev >= 0 && not (Array.mem m (pa_arr st.succ !prev)) then
            fail "chain members not joined by an edge";
          prev := m)
        ms;
      Int_vec.push ix.chain_tail !prev
    end
  done;
  Array.iter (fun c -> Int_vec.push ix.free_chains c) cs.cs_free_chains;
  let placed = ref true in
  for i = 0 to n - 1 do
    if Array.length (pa_arr st.pred i) > 0 && pa_int l.place i < 0 then
      placed := false
  done;
  if g.max_chains > 0 && !placed then begin
    set_labels g (Some l);
    compute_labels g l
  end
  else set_labels g None;
  g.w.traversals <- s.snap_traversals;
  g.w.visited_total <- s.snap_visited_total;
  g.w.queries <- queries;
  (* Restored epochs must continue monotonically so a client's
     [`At_least e] demand issued before a restart is still satisfiable
     after it. *)
  st.version <- s.snap_version;
  g

let out_degree g id =
  let s = slot g id in
  if s < 0 then None else Some (Array.length (pa_arr g.st.succ s))

let in_degree g id =
  let s = slot g id in
  if s < 0 then None else Some (Array.length (pa_arr g.st.pred s))

let successors g id =
  let s = slot g id in
  if s < 0 then [] else List.map (id_of_slot g) (Array.to_list (pa_arr g.st.succ s))

let predecessors g id =
  let s = slot g id in
  if s < 0 then [] else List.map (id_of_slot g) (Array.to_list (pa_arr g.st.pred s))

let iter_live g f =
  for s = 0 to g.st.n - 1 do
    if pa_int g.st.gen s >= 0 then f (id_of_slot g s)
  done

let fold_edges g f init =
  let acc = ref init in
  for s = 0 to g.st.n - 1 do
    if pa_int g.st.gen s >= 0 then begin
      let u = id_of_slot g s in
      Array.iter (fun w -> acc := f !acc u (id_of_slot g w)) (pa_arr g.st.succ s)
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
  let held a = if Array.length a = 0 then 0 else arr a in
  let vec v = block 2 + arr (Int_vec.unsafe_data v) in
  let string_bytes n = block ((n / word) + 1) in
  (* a chunked field: its root, blocks and chunks, and what each entry
     holds of its own *)
  let field root value =
    Array.fold_left
      (fun acc blk ->
        Array.fold_left
          (fun acc c -> Array.fold_left (fun acc x -> acc + value x) (acc + held c) c)
          (acc + arr blk) blk)
      (arr root) root
  in
  let nothing _ = 0 in
  let head h = if String.length h = 0 then 0 else string_bytes (String.length h) in
  let st = g.st and ix = g.ix in
  (* the store record, and the writer with its [Some] box *)
  block 14 + block 1 + block 7
  + field st.gen nothing + field st.rank nothing
  + field st.succ held + field st.pred held
  (* commitment chains: link stores, counts and heads *)
  + field st.links Links.heap_bytes + field st.link_counts nothing
  + field st.heads head
  (* the [Some] box, the record, placements and labels *)
  + (match st.labels with
     | Some l -> block 1 + block 2 + field l.place nothing + field l.lbl held
     | None -> 0)
  (* the chain bookkeeping *)
  + block 5 + held ix.buf + vec ix.chain_len + vec ix.chain_live
  + vec ix.chain_tail + vec ix.free_chains
  + arr g.refcount
  (* dirty tracking: a flag byte per chunk and the list of flagged chunks *)
  + string_bytes (Bytes.length g.dirty_flags) + vec g.dirty
  + vec g.free + vec g.stack + vec g.w.staged

(* ------------------------------------------------------------------ *)
(* Frozen views (DESIGN.md §14).                                       *)
(* ------------------------------------------------------------------ *)

(* The view's root for one field: [old]'s blocks and chunks, shared, with
   a copy of [live]'s chunk for each chunk in [dirty].  A block still
   [old]'s is copied before its first write, so [old] never changes.  A
   field the store does not hold (digests off) has the empty root. *)
let pa_publish (old : 'a pa) (live : 'a pa) blocks dirty =
  if Array.length live = 0 then [||]
  else begin
    let root =
      Array.init blocks (fun b ->
          if b < Array.length old then old.(b) else Array.make chunk_size [||])
    in
    let chunks = Int_vec.unsafe_data dirty in
    for i = 0 to Int_vec.length dirty - 1 do
      let c = chunks.(i) in
      let b = c lsr chunk_bits in
      if b < Array.length old && root.(b) == old.(b) then
        root.(b) <- Array.copy old.(b);
      root.(b).(c land chunk_mask) <- Array.copy (pa_chunk_at live c)
    done;
    root
  end

(* Publish a copy of the store in O(dirty): each field's next root copies
   the small root, plus — once each — the block and chunk holding every
   slot written since the previous freeze; every other block and chunk is
   shared with the previous view by pointer, and per-slot values always
   are, being immutable.  Sharing is sound because [frozen_cache] always
   holds the {e latest} freeze and [dirty] lists exactly the chunks
   written since it; every slot below the count has been written since
   the graph was created, so the first freeze copies every chunk.  Must
   be called from the writer domain only (it consumes the dirty list and
   updates the cache); the returned value may then be read from any
   domain. *)
let freeze g =
  check_unstaged g "freeze";
  let st = g.st in
  match g.frozen_cache with
  | Some f when f.version = st.version -> f
  | prev ->
    let blocks = (st.n + (1 lsl block_bits) - 1) lsr block_bits in
    let previous field = match prev with Some p -> field p | None -> [||] in
    let publish old live = pa_publish old live blocks g.dirty in
    let f =
      {
        version = st.version;
        n = st.n;
        live = st.live;
        edges = st.edges;
        digests = st.digests;
        gen = publish (previous (fun p -> p.gen)) st.gen;
        rank = publish (previous (fun p -> p.rank)) st.rank;
        succ = publish (previous (fun p -> p.succ)) st.succ;
        pred = publish (previous (fun p -> p.pred)) st.pred;
        links = publish (previous (fun p -> p.links)) st.links;
        link_counts = publish (previous (fun p -> p.link_counts)) st.link_counts;
        heads = publish (previous (fun p -> p.heads)) st.heads;
        labels =
          Option.map
            (fun l ->
              let pl =
                match prev with
                | Some { labels = Some pl; _ } -> pl
                | Some _ | None -> no_labels
              in
              { place = publish pl.place l.place; lbl = publish pl.lbl l.lbl })
            st.labels;
        writer = None;
      }
    in
    Int_vec.iter (fun c -> Bytes.unsafe_set g.dirty_flags c '\000') g.dirty;
    Int_vec.clear g.dirty;
    g.frozen_cache <- Some f;
    f
