open Kronos
module Net = Kronos_simnet.Net
module Client = Kronos_service.Client

type vertex_state = {
  mutable versions : (Event_id.t * G_msg.vop) list;  (* newest first *)
  mutable last : Event_id.t option;  (* most recent op's event *)
}

type work =
  | Update of {
      client : Net.addr;
      req_id : int;
      event : Event_id.t;
      vertex : int;
      op : G_msg.vop;
    }
  | Query of {
      client : Net.addr;
      req_id : int;
      event : Event_id.t;
      vertices : int list;
    }

type t = {
  net : G_msg.msg Net.t;
  addr : Net.addr;
  kronos : Client.t;
  cache : Order_cache.t;
  vertices : (int, vertex_state) Hashtbl.t;
  mutable pending : work list;           (* arrival order, oldest first *)
  in_flight : (int, unit) Hashtbl.t;     (* vertices of ops being processed *)
  mutable operations : int;
  mutable vertex_touches : int;
  mutable kronos_batches : int;
  mutable fast_path_ops : int;
  mutable reversals : int;
}

let addr t = t.addr
let operations t = t.operations
let vertex_touches t = t.vertex_touches
let kronos_batches t = t.kronos_batches
let fast_path_ops t = t.fast_path_ops
let reversals t = t.reversals

let vertex_state t v =
  match Hashtbl.find_opt t.vertices v with
  | Some vs -> vs
  | None ->
    let vs = { versions = []; last = None } in
    Hashtbl.replace t.vertices v vs;
    vs

(* Adjacency from a version list (newest first), including only entries for
   which [visible] holds. *)
let fold_adjacency versions visible =
  let module IS = Set.Make (Int) in
  let apply acc (event, op) =
    if not (visible event) then acc
    else
      match (op : G_msg.vop) with
      | G_msg.Add_vertex -> acc
      | G_msg.Add_edge w -> IS.add w acc
      | G_msg.Remove_edge w -> IS.remove w acc
  in
  IS.elements (List.fold_left apply IS.empty (List.rev versions))

let adjacency_now t v =
  match Hashtbl.find_opt t.vertices v with
  | None -> []
  | Some vs -> fold_adjacency vs.versions (fun _ -> true)

let preload t ~vertex ~neighbors ~event =
  let vs = vertex_state t vertex in
  vs.versions <-
    List.rev_append (List.rev_map (fun w -> (event, G_msg.Add_edge w)) neighbors)
      vs.versions;
  vs.last <- Some event

let version_events t v =
  match Hashtbl.find_opt t.vertices v with
  | None -> []
  | Some vs -> List.rev_map fst vs.versions

let respond t ~client ~req_id body =
  Net.send t.net ~src:t.addr ~dst:client (G_msg.Response { req_id; body })

(* Entry is masked for event [e] iff the cache knows it is ordered after
   [e]; unknown (concurrent) entries stay visible — only operations the
   timeline places after the query are omitted (Section 3.2). *)
let known_after t entry_event e =
  match Order_cache.find t.cache e entry_event with
  | Some Order.Before -> true
  | Some (Order.After | Order.Concurrent | Order.Same) | None -> false

(* Insert a reversed update before every version entry known to be ordered
   after it. *)
let insert_version t vs event op =
  let rec place = function
    | entry :: rest when known_after t (fst entry) event -> entry :: place rest
    | l -> (event, op) :: l
  in
  vs.versions <- place vs.versions

(* Resolve the order of [e] against each vertex's most recent event.  Pairs
   the cache already knows cost nothing; the rest go to Kronos as one
   batched prefer call.  [k] receives, per input vertex, [`After_last]
   (normal: e follows the vertex's history) or [`Reversed]. *)
let resolve_orders t e touched k =
  let classify v =
    let vs = vertex_state t v in
    match vs.last with
    | None -> (v, `After_last)
    | Some prev when Event_id.equal prev e -> (v, `After_last)
    | Some prev -> (
        match Order_cache.find t.cache prev e with
        | Some Order.Before -> (v, `After_last)
        | Some Order.After -> (v, `Reversed)
        | Some (Order.Concurrent | Order.Same) | None -> (v, `Unknown prev))
  in
  let classified = List.map classify touched in
  let unknown =
    List.filter_map
      (fun (v, c) -> match c with `Unknown prev -> Some (v, prev) | _ -> None)
      classified
  in
  if unknown = [] then begin
    t.fast_path_ops <- t.fast_path_ops + 1;
    k (List.map (fun (v, c) -> (v, if c = `Reversed then `Reversed else `After_last))
         classified)
  end
  else begin
    t.kronos_batches <- t.kronos_batches + 1;
    (* one batch, deduplicated by predecessor event *)
    let uniq_prevs =
      List.sort_uniq Event_id.compare (List.map snd unknown)
    in
    let reqs =
      List.map (fun prev -> Order.prefer_before prev e) uniq_prevs
    in
    Client.assign_order t.kronos reqs (fun result ->
        let outcome_of prev =
          match result with
          | Error _ -> `After_last (* stale event collected elsewhere: treat as free *)
          | Ok outcomes -> (
              match
                List.find_opt
                  (fun (p, _) -> Event_id.equal p prev)
                  (List.combine uniq_prevs outcomes)
              with
              | Some (_, Order.Reversed) -> `Reversed
              | Some (_, (Order.Applied | Order.Already)) | None -> `After_last)
        in
        k
          (List.map
             (fun (v, c) ->
               match c with
               | `Unknown prev -> (v, outcome_of prev)
               | `Reversed -> (v, `Reversed)
               | `After_last -> (v, `After_last))
             classified))
  end

let process_update t ~client ~req_id ~event ~vertex ~op k =
  resolve_orders t event [ vertex ] (fun resolution ->
      let vs = vertex_state t vertex in
      (match resolution with
       | [ (_, `After_last) ] ->
         vs.versions <- (event, op) :: vs.versions;
         vs.last <- Some event
       | [ (_, `Reversed) ] ->
         t.reversals <- t.reversals + 1;
         insert_version t vs event op
       | _ -> assert false);
      respond t ~client ~req_id G_msg.K_update_done;
      k ())

let process_query t ~client ~req_id ~event ~vertices k =
  resolve_orders t event vertices (fun resolution ->
      let answer (v, how) =
        let vs = vertex_state t v in
        let neighbors =
          match how with
          | `After_last ->
            (* the query is ordered after the vertex's whole history *)
            vs.last <- Some event;
            fold_adjacency vs.versions (fun _ -> true)
          | `Reversed ->
            t.reversals <- t.reversals + 1;
            fold_adjacency vs.versions (fun entry -> not (known_after t entry event))
        in
        (v, neighbors)
      in
      respond t ~client ~req_id (G_msg.K_neighbors_are (List.map answer resolution));
      k ())

let vertices_of = function
  | Update { vertex; _ } -> [ vertex ]
  | Query { vertices; _ } -> vertices

(* Start every queued operation whose vertices are all idle, preserving
   arrival order per vertex (an operation also shadows its vertices for
   later queued operations).  Operations on disjoint vertices overlap, so a
   Kronos round trip for one vertex never stalls the whole shard. *)
let rec pump t =
  let blocked = Hashtbl.create 8 in
  let to_start = ref [] in
  let still_queued = ref [] in
  List.iter
    (fun w ->
      let vs = vertices_of w in
      let busy =
        List.exists
          (fun v -> Hashtbl.mem t.in_flight v || Hashtbl.mem blocked v)
          vs
      in
      List.iter (fun v -> Hashtbl.replace blocked v ()) vs;
      if busy then still_queued := w :: !still_queued
      else begin
        List.iter (fun v -> Hashtbl.replace t.in_flight v ()) vs;
        to_start := w :: !to_start
      end)
    t.pending;
  t.pending <- List.rev !still_queued;
  List.iter (start t) (List.rev !to_start)

and start t w =
  t.operations <- t.operations + 1;
  t.vertex_touches <- t.vertex_touches + List.length (vertices_of w);
  let finish () =
    List.iter (Hashtbl.remove t.in_flight) (vertices_of w);
    pump t
  in
  match w with
  | Update { client; req_id; event; vertex; op } ->
    process_update t ~client ~req_id ~event ~vertex ~op finish
  | Query { client; req_id; event; vertices } ->
    process_query t ~client ~req_id ~event ~vertices finish

let handle t ~src:_ msg =
  match (msg : G_msg.msg) with
  | G_msg.Response _ -> ()
  | G_msg.Request { client; req_id; body } ->
    (match body with
     | G_msg.K_update { event; vertex; op } ->
       t.pending <- t.pending @ [ Update { client; req_id; event; vertex; op } ]
     | G_msg.K_neighbors { event; vertices } ->
       t.pending <- t.pending @ [ Query { client; req_id; event; vertices } ]
     | G_msg.L_lock _ | G_msg.L_unlock_all _ | G_msg.L_update _
     | G_msg.L_neighbors _ ->
       invalid_arg "Kshard: lock-protocol message sent to a KronoGraph shard");
    pump t

let create ~net ~addr ~kronos =
  let cache =
    match Client.cache kronos with
    | Some cache -> cache
    | None -> invalid_arg "Kshard.create: kronos client must have caching enabled"
  in
  let t =
    {
      net;
      addr;
      kronos;
      cache;
      vertices = Hashtbl.create 4096;
      pending = [];
      in_flight = Hashtbl.create 64;
      operations = 0;
      vertex_touches = 0;
      kronos_batches = 0;
      fast_path_ops = 0;
      reversals = 0;
    }
  in
  Net.register net addr (handle t);
  t
