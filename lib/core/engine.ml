(* Process-wide counters for the metrics plane, aggregated across all
   engines the process hosts (a kronosd process hosts exactly one). *)
module M = struct
  let scope = Kronos_metrics.scope "engine"
  let creates = Kronos_metrics.counter scope "events_created_total"
  let collected = Kronos_metrics.counter scope "events_collected_total"
  let queries = Kronos_metrics.counter scope "queries_total"
  let assigns = Kronos_metrics.counter scope "assigns_total"
  let aborted = Kronos_metrics.counter scope "aborted_batches_total"
  let reversals = Kronos_metrics.counter scope "reversals_total"
end

type config = {
  initial_capacity : int;
  digests : bool;
  max_chains : int;
}

let default_config =
  { initial_capacity = 1024; digests = true; max_chains = 64 }

type t = {
  g : Graph.t;
  mutable creates : int;
  mutable queries : int;
  mutable assigns : int;
  mutable aborted_batches : int;
  mutable reversals : int;
  mutable collected : int;
}

let create ?(config = default_config) () =
  { g = Graph.create ~initial_capacity:config.initial_capacity
      ~digests:config.digests ~max_chains:config.max_chains ();
    creates = 0; queries = 0; assigns = 0; aborted_batches = 0;
    reversals = 0; collected = 0 }

let graph t = t.g

let create_event t =
  t.creates <- t.creates + 1;
  Kronos_metrics.Counter.incr M.creates;
  Graph.create_event t.g

let acquire_ref t e =
  if Graph.acquire_ref t.g e then Ok () else Error (Order.Unknown_event e)

let release_ref t e =
  match Graph.release_ref t.g e with
  | Some n ->
    t.collected <- t.collected + n;
    Kronos_metrics.Counter.add M.collected n;
    Ok n
  | None -> Error (Order.Unknown_event e)

let query_order t pairs =
  let rec check = function
    | [] -> None
    | (e1, e2) :: rest ->
      if not (Graph.is_live t.g e1) then Some e1
      else if not (Graph.is_live t.g e2) then Some e2
      else check rest
  in
  match check pairs with
  | Some e -> Error (Order.Unknown_event e)
  | None ->
    let answer (e1, e2) =
      t.queries <- t.queries + 1;
      Kronos_metrics.Counter.incr M.queries;
      match Graph.query t.g e1 e2 with
      | Ok r -> r
      | Error _ -> assert false (* all arguments were checked live *)
    in
    Ok (List.map answer pairs)

(* A normalized constraint: [before] precedes [after]. *)
type pending = {
  index : int;
  before : Event_id.t;
  after : Event_id.t;
  kind : Order.kind;
}

let normalize index (s : Order.spec) =
  match s.direction with
  | Order.Happens_before ->
    { index; before = s.left; after = s.right; kind = s.kind }
  | Order.Happens_after ->
    { index; before = s.right; after = s.left; kind = s.kind }

let assign_order t requests =
  let n = List.length requests in
  let pending = List.mapi normalize requests in
  let stale =
    List.find_opt
      (fun p ->
        not (Graph.is_live t.g p.before) || not (Graph.is_live t.g p.after))
      pending
  in
  match stale with
  | Some p ->
    let e = if Graph.is_live t.g p.before then p.after else p.before in
    Error (Order.Unknown_event e)
  | None ->
    let musts = List.filter (fun p -> p.kind = Order.Must) pending in
    let prefers = List.filter (fun p -> p.kind = Order.Prefer) pending in
    let outcomes = Array.make n Order.Already in
    (* The batch's edges stay staged in the graph until it commits: an
       abort pops them, and nothing else has seen them. *)
    let rollback () =
      Graph.abort t.g;
      t.aborted_batches <- t.aborted_batches + 1;
      Kronos_metrics.Counter.incr M.aborted
    in
    (* The rank index folds the cycle check into edge insertion: when the
       ranks already agree it is O(1), otherwise the bounded relabel search
       detects [after ⇝ before] itself — no separate full reachability
       probe per constraint.  A [false] return is exactly the old
       "contradicts the committed order" case. *)
    let try_apply_edge p =
      if Graph.try_add_edge t.g p.before p.after then begin
        outcomes.(p.index) <- Order.Applied;
        true
      end
      else false
    in
    let rec apply_musts = function
      | [] -> Ok ()
      | p :: rest ->
        t.assigns <- t.assigns + 1;
        Kronos_metrics.Counter.incr M.assigns;
        if Event_id.equal p.before p.after then begin
          rollback ();
          Error (Order.Must_self p.index)
        end
        else if Graph.reachable t.g p.before p.after then begin
          outcomes.(p.index) <- Order.Already;
          apply_musts rest
        end
        else if try_apply_edge p then apply_musts rest
        else begin
          rollback ();
          Error (Order.Must_violated p.index)
        end
    in
    let apply_prefer p =
      t.assigns <- t.assigns + 1;
      Kronos_metrics.Counter.incr M.assigns;
      if Event_id.equal p.before p.after then
        outcomes.(p.index) <- Order.Already
      else if Graph.reachable t.g p.before p.after then
        outcomes.(p.index) <- Order.Already
      else if not (try_apply_edge p) then begin
        t.reversals <- t.reversals + 1;
        Kronos_metrics.Counter.incr M.reversals;
        outcomes.(p.index) <- Order.Reversed
      end
    in
    (match apply_musts musts with
     | Error e -> Error e
     | Ok () ->
       List.iter apply_prefer prefers;
       (* the batch is final: fold and label its edges *)
       Graph.seal t.g;
       Ok (Array.to_list outcomes))

type snapshot = {
  snap_graph : Graph.snapshot;
  snap_creates : int;
  snap_queries : int;
  snap_assigns : int;
  snap_aborted_batches : int;
  snap_reversals : int;
  snap_collected : int;
}

let to_snapshot t =
  {
    snap_graph = Graph.to_snapshot t.g;
    snap_creates = t.creates;
    snap_queries = t.queries;
    snap_assigns = t.assigns;
    snap_aborted_batches = t.aborted_batches;
    snap_reversals = t.reversals;
    snap_collected = t.collected;
  }

let of_snapshot s =
  {
    g = Graph.of_snapshot s.snap_graph;
    creates = s.snap_creates;
    queries = s.snap_queries;
    assigns = s.snap_assigns;
    aborted_batches = s.snap_aborted_batches;
    reversals = s.snap_reversals;
    collected = s.snap_collected;
  }

let live_events t = Graph.live_count t.g
let edges t = Graph.edge_count t.g
let memory_bytes t = Graph.memory_bytes t.g
let commitment t e = Graph.commitment t.g e
let label_hits t = Graph.label_hit_count t.g
let label_misses t = Graph.label_miss_count t.g
let label_rebuilds t = Graph.label_rebuild_count t.g
let chain_count t = Graph.chain_count t.g
let labels_live t = Graph.labels_live t.g

type stats = {
  creates : int;
  queries : int;
  assigns : int;
  aborted_batches : int;
  reversals : int;
  collected : int;
  traversals : int;
  visited : int;
}

let stats (t : t) =
  {
    creates = t.creates;
    queries = t.queries;
    assigns = t.assigns;
    aborted_batches = t.aborted_batches;
    reversals = t.reversals;
    collected = t.collected;
    traversals = Graph.traversal_count t.g;
    visited = Graph.visited_total t.g;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>creates=%d queries=%d assigns=%d aborted=%d reversals=%d@ \
     collected=%d traversals=%d visited=%d@]"
    s.creates s.queries s.assigns s.aborted_batches s.reversals s.collected
    s.traversals s.visited

(* ------------------------------------------------------------------ *)
(* Read views (DESIGN.md §14).                                         *)
(* ------------------------------------------------------------------ *)

let epoch t = Int64.of_int (Graph.version t.g)

(* A [Live] view reads the engine's own graph directly — zero publication
   cost, single-domain only, and queries keep feeding the engine's
   counters exactly as before.  A [Frozen] view is a deeply immutable
   snapshot safe to read from any domain; its queries touch no mutable
   state at all (no counters, no caches). *)
type view = Live of t | Frozen of Graph.Frozen.g

let current_view t = Live t

let publish t = Frozen (Graph.freeze t.g)

module View = struct
  type t = view

  let epoch = function
    | Live e -> Int64.of_int (Graph.version e.g)
    | Frozen f -> Int64.of_int (Graph.Frozen.version f)

  let is_live v id =
    match v with
    | Live e -> Graph.is_live e.g id
    | Frozen f -> Graph.Frozen.is_live f id

  let rank v id =
    match v with
    | Live e -> Graph.rank e.g id
    | Frozen f -> Graph.Frozen.rank f id

  let query v e1 e2 =
    match v with
    | Live e -> Graph.query e.g e1 e2
    | Frozen f -> Graph.Frozen.query f e1 e2

  let label_reachable v u w =
    match v with
    | Live e -> Graph.label_reachable e.g u w
    | Frozen f -> Graph.Frozen.label_reachable f u w

  let query_order v pairs =
    match v with
    | Live e -> query_order e pairs
    | Frozen f ->
      let rec check = function
        | [] -> None
        | (e1, e2) :: rest ->
          if not (Graph.Frozen.is_live f e1) then Some e1
          else if not (Graph.Frozen.is_live f e2) then Some e2
          else check rest
      in
      (match check pairs with
       | Some e -> Error (Order.Unknown_event e)
       | None ->
         let answer (e1, e2) =
           match Graph.Frozen.query f e1 e2 with
           | Ok r -> r
           | Error _ -> assert false (* all arguments were checked live *)
         in
         Ok (List.map answer pairs))

  let digests_enabled = function
    | Live e -> Graph.digests_enabled e.g
    | Frozen f -> Graph.Frozen.digests_enabled f

  let commitment v id =
    match v with
    | Live e -> Graph.commitment e.g id
    | Frozen f -> Graph.Frozen.commitment f id

  let chain_length v id =
    match v with
    | Live e -> Graph.chain_length e.g id
    | Frozen f -> Graph.Frozen.chain_length f id

  let chain v id =
    match v with
    | Live e -> Graph.chain e.g id
    | Frozen f -> Graph.Frozen.chain f id

  let live_events = function
    | Live e -> Graph.live_count e.g
    | Frozen f -> Graph.Frozen.live_count f

  let edges = function
    | Live e -> Graph.edge_count e.g
    | Frozen f -> Graph.Frozen.edge_count f
end
