open Kronos

let relation = Alcotest.testable Order.pp_relation Order.relation_equal

let ids n = Array.init n (fun slot -> Event_id.make ~slot ~gen:0)

let test_insert_find () =
  let c = Order_cache.create ~capacity:16 () in
  let e = ids 3 in
  Order_cache.insert c e.(0) e.(1) Order.Before;
  Alcotest.(check (option relation)) "hit" (Some Order.Before)
    (Order_cache.find c e.(0) e.(1));
  Alcotest.(check (option relation)) "flipped" (Some Order.After)
    (Order_cache.find c e.(1) e.(0));
  Alcotest.(check (option relation)) "miss" None
    (Order_cache.find c e.(0) e.(2))

let test_after_normalized () =
  let c = Order_cache.create ~capacity:16 () in
  let e = ids 2 in
  Order_cache.insert c e.(0) e.(1) Order.After;
  Alcotest.(check (option relation)) "stored as before of flipped pair"
    (Some Order.Before)
    (Order_cache.find c e.(1) e.(0))

let test_same_identity () =
  let c = Order_cache.create ~capacity:16 () in
  let e = ids 1 in
  Alcotest.(check (option relation)) "same for free" (Some Order.Same)
    (Order_cache.find c e.(0) e.(0))

let test_concurrent_not_cached () =
  let c = Order_cache.create ~capacity:16 () in
  let e = ids 2 in
  Order_cache.insert c e.(0) e.(1) Order.Concurrent;
  Alcotest.(check (option relation)) "not cached" None
    (Order_cache.find c e.(0) e.(1));
  Alcotest.(check int) "size 0" 0 (Order_cache.size c)

let test_transitive_prefill () =
  let c = Order_cache.create ~capacity:64 () in
  let e = ids 4 in
  (* cache v -> w first; then learn u -> v; u -> w should be inferred *)
  Order_cache.insert c e.(1) e.(2) Order.Before;
  Order_cache.insert c e.(0) e.(1) Order.Before;
  Alcotest.(check (option relation)) "u -> w inferred" (Some Order.Before)
    (Order_cache.find c e.(0) e.(2));
  Alcotest.(check bool) "prefill counted" true (Order_cache.prefills c > 0);
  (* backward direction: t -> u cached, insert u -> x, infer t -> x *)
  Order_cache.insert c e.(1) e.(3) Order.Before;
  Alcotest.(check (option relation)) "t -> x inferred" (Some Order.Before)
    (Order_cache.find c e.(0) e.(3))

let test_lru_eviction () =
  let c = Order_cache.create ~capacity:2 () in
  let e = ids 6 in
  Order_cache.insert c e.(0) e.(1) Order.Before;
  Order_cache.insert c e.(2) e.(3) Order.Before;
  (* touch the first entry so the second is evicted *)
  ignore (Order_cache.find c e.(0) e.(1));
  Order_cache.insert c e.(4) e.(5) Order.Before;
  Alcotest.(check int) "bounded" 2 (Order_cache.size c);
  Alcotest.(check (option relation)) "lru kept" (Some Order.Before)
    (Order_cache.find c e.(0) e.(1));
  Alcotest.(check (option relation)) "evicted" None
    (Order_cache.find c e.(2) e.(3))

(* Regression: with no lookups at all, hit_rate must be 0.0, not NaN
   (0/0) — `kronos_cli stats` renders it as a percentage. *)
let test_hit_rate_no_lookups () =
  let c = Order_cache.create ~capacity:8 () in
  let r = Order_cache.hit_rate (Order_cache.stats c) in
  Alcotest.(check bool) "not NaN" false (Float.is_nan r);
  Alcotest.(check (float 0.0)) "exactly zero" 0.0 r

let test_eviction_counter () =
  let c = Order_cache.create ~capacity:2 () in
  let e = ids 8 in
  Alcotest.(check int) "starts at zero" 0 (Order_cache.evictions c);
  Order_cache.insert c e.(0) e.(1) Order.Before;
  Order_cache.insert c e.(2) e.(3) Order.Before;
  Alcotest.(check int) "no eviction while under capacity" 0
    (Order_cache.evictions c);
  Order_cache.insert c e.(4) e.(5) Order.Before;
  Order_cache.insert c e.(6) e.(7) Order.Before;
  Alcotest.(check int) "one eviction per overflow" 2 (Order_cache.evictions c);
  Alcotest.(check int) "stats field agrees" 2
    (Order_cache.stats c).Order_cache.stat_evictions;
  (* re-inserting a resident pair evicts nothing *)
  Order_cache.insert c e.(6) e.(7) Order.Before;
  Alcotest.(check int) "update in place" 2 (Order_cache.evictions c)

let test_counters_and_clear () =
  let c = Order_cache.create ~capacity:8 () in
  let e = ids 2 in
  ignore (Order_cache.find c e.(0) e.(1));
  Order_cache.insert c e.(0) e.(1) Order.Before;
  ignore (Order_cache.find c e.(0) e.(1));
  Alcotest.(check int) "hits" 1 (Order_cache.hits c);
  Alcotest.(check int) "misses" 1 (Order_cache.misses c);
  Order_cache.clear c;
  Alcotest.(check int) "empty" 0 (Order_cache.size c);
  Alcotest.(check (option relation)) "cleared" None
    (Order_cache.find c e.(0) e.(1))

(* Property: the cache never returns an answer that contradicts the engine
   it was fed from, under random workloads. *)
let prop_cache_consistent_with_engine =
  let open QCheck2 in
  let n = 8 in
  let gen_op =
    Gen.(frequency
           [ (3, map2 (fun u v -> `Assign (u, v)) (int_bound (n - 1)) (int_bound (n - 1)));
             (5, map2 (fun u v -> `Query (u, v)) (int_bound (n - 1)) (int_bound (n - 1)));
           ])
  in
  Test.make ~name:"cache agrees with engine" ~count:200
    Gen.(list_size (int_bound 80) gen_op)
    (fun ops ->
      let t = Engine.create () in
      let ids = Array.init n (fun _ -> Engine.create_event t) in
      let c = Order_cache.create ~capacity:32 () in
      List.for_all
        (function
          | `Assign (u, v) ->
            ignore (Engine.assign_order t
                      [ Order.prefer_before ids.(u) ids.(v) ]);
            true
          | `Query (u, v) -> (
              match Order_cache.find c ids.(u) ids.(v) with
              | Some cached ->
                (* cached stable answers must match the engine *)
                (match Engine.query_order t [ (ids.(u), ids.(v)) ] with
                 | Ok [ live ] -> Order.relation_equal cached live
                 | Ok _ | Error _ -> false)
              | None -> (
                  match Engine.query_order t [ (ids.(u), ids.(v)) ] with
                  | Ok [ live ] -> Order_cache.insert c ids.(u) ids.(v) live; true
                  | Ok _ | Error _ -> false)))
        ops)

(* Regression: the LRU list once pointed the neighbour of a removed end
   node back at that node, so a later eviction took a detached node and
   [size] climbed past [capacity] (this sequence ended at size 6). *)
let test_capacity_bound_after_end_unlink () =
  let c = Order_cache.create ~capacity:4 () in
  let e = ids 6 in
  List.iter
    (fun (a, b) -> Order_cache.insert c e.(a) e.(b) Order.Before)
    [ (1, 2); (0, 1); (1, 2); (1, 4); (0, 2); (4, 5) ];
  Alcotest.(check bool) "size within capacity" true (Order_cache.size c <= 4);
  Alcotest.(check (option relation)) "newest fact kept" (Some Order.Before)
    (Order_cache.find c e.(4) e.(5))

(* A pair re-inserted with the opposite direction moves between the
   adjacency lists, so later pre-fills follow the new direction. *)
let test_flipped_pair_reindexed () =
  let c = Order_cache.create ~capacity:16 () in
  let e = ids 3 in
  Order_cache.insert c e.(0) e.(1) Order.Before;
  Order_cache.insert c e.(0) e.(1) Order.After;
  Order_cache.insert c e.(2) e.(1) Order.Before;
  Alcotest.(check (option relation)) "flipped answer" (Some Order.After)
    (Order_cache.find c e.(0) e.(1));
  Alcotest.(check (option relation)) "pre-fill through the new edge"
    (Some Order.Before)
    (Order_cache.find c e.(2) e.(0))

(* A naive reference for the cache: a plain list of entries, each with a
   creation stamp (adjacency order: newest indexed first) and a last-use
   stamp (LRU order). *)
module Model = struct
  type entry = { src : int; dst : int; born : int; mutable used : int }

  type t = {
    capacity : int;
    fanout : int;
    mutable entries : entry list;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable prefills : int;
    mutable evictions : int;
  }

  let create ~capacity ~fanout =
    { capacity; fanout; entries = []; clock = 0; hits = 0; misses = 0;
      prefills = 0; evictions = 0 }

  let tick m = m.clock <- m.clock + 1; m.clock

  let lookup m a b =
    List.find_opt
      (fun x -> (x.src = a && x.dst = b) || (x.src = b && x.dst = a))
      m.entries

  let add m s d =
    if List.length m.entries >= m.capacity then begin
      let lru =
        List.fold_left
          (fun acc x -> if x.used < acc.used then x else acc)
          (List.hd m.entries) m.entries
      in
      m.entries <- List.filter (fun x -> x != lru) m.entries;
      m.evictions <- m.evictions + 1
    end;
    let now = tick m in
    m.entries <- { src = s; dst = d; born = now; used = now } :: m.entries

  let newest m keep project =
    List.filter keep m.entries
    |> List.sort (fun x y -> compare y.born x.born)
    |> List.filteri (fun i _ -> i < m.fanout)
    |> List.map project

  let fill m b a =
    if b <> a && lookup m b a = None then begin
      m.prefills <- m.prefills + 1;
      add m b a
    end

  let insert_before m before after =
    if before <> after then
      match lookup m before after with
      | Some x ->
        if x.src <> before then
          m.entries <-
            { src = before; dst = after; born = tick m; used = 0 }
            :: List.filter (fun y -> y != x) m.entries;
        (match lookup m before after with
         | Some x -> x.used <- tick m
         | None -> assert false)
      | None ->
        add m before after;
        let forward = newest m (fun x -> x.src = after) (fun x -> x.dst)
        and backward = newest m (fun x -> x.dst = before) (fun x -> x.src) in
        List.iter (fill m before) forward;
        List.iter (fun u -> fill m u after) backward

  let insert m a b (rel : Order.relation) =
    match rel with
    | Before -> insert_before m a b
    | After -> insert_before m b a
    | Same | Concurrent -> ()

  let find m a b =
    if a = b then Some Order.Same
    else
      match lookup m a b with
      | Some x ->
        x.used <- tick m;
        m.hits <- m.hits + 1;
        Some (if x.src = a then Order.Before else Order.After)
      | None ->
        m.misses <- m.misses + 1;
        None
end

(* Differential: the cache against {!Model} under random capacities and
   fanouts, on consistent facts drawn from a hidden total order, checking
   every [find] answer and every counter after each step. *)
let prop_cache_matches_model =
  let open QCheck2 in
  let gen_case =
    Gen.(
      let* capacity = int_range 1 120 in
      let* fanout = int_range 0 19 in
      let* n = int_range 2 40 in
      let* rank = shuffle_a (Array.init n Fun.id) in
      let pair = pair (int_bound (n - 1)) (int_bound (n - 1)) in
      let op =
        frequency
          [ (9, map (fun (u, v) -> `Insert (u, v)) pair);
            (1, map2 (fun (u, v) c -> `Noise (u, v, c)) pair bool);
            (8, map (fun (u, v) -> `Find (u, v)) pair) ]
      in
      let* ops = list_size (int_bound 400) op in
      return (capacity, fanout, rank, ops))
  in
  let print (capacity, fanout, rank, ops) =
    let op = function
      | `Insert (u, v) -> Printf.sprintf "insert %d %d" u v
      | `Noise (u, v, _) -> Printf.sprintf "noise %d %d" u v
      | `Find (u, v) -> Printf.sprintf "find %d %d" u v
    in
    Printf.sprintf "capacity %d fanout %d ranks [%s]: %s" capacity fanout
      (String.concat ";" (Array.to_list (Array.map string_of_int rank)))
      (String.concat ", " (List.map op ops))
  in
  Test.make ~name:"cache matches list model" ~count:400 ~print gen_case
    (fun (capacity, fanout, rank, ops) ->
      let ids =
        Array.init (Array.length rank) (fun i ->
            Event_id.make ~slot:(i * 7919) ~gen:(i mod 3))
      in
      let c = Order_cache.create ~prefill_fanout:fanout ~capacity () in
      let m = Model.create ~capacity ~fanout in
      let fact u v = if rank.(u) < rank.(v) then Order.Before else Order.After in
      let agree () =
        let s = Order_cache.stats c in
        s.Order_cache.stat_size = List.length m.Model.entries
        && s.Order_cache.stat_size <= capacity
        && s.Order_cache.stat_hits = m.Model.hits
        && s.Order_cache.stat_misses = m.Model.misses
        && s.Order_cache.stat_prefills = m.Model.prefills
        && s.Order_cache.stat_evictions = m.Model.evictions
      in
      List.for_all
        (fun op ->
          let answers_agree =
            match op with
            | `Insert (u, v) ->
              let rel = if u = v then Order.Same else fact u v in
              Order_cache.insert c ids.(u) ids.(v) rel;
              Model.insert m u v rel;
              true
            | `Noise (u, v, concurrent) ->
              let rel = if concurrent then Order.Concurrent else Order.Same in
              Order_cache.insert c ids.(u) ids.(v) rel;
              Model.insert m u v rel;
              true
            | `Find (u, v) ->
              Option.equal Order.relation_equal
                (Order_cache.find c ids.(u) ids.(v))
                (Model.find m u v)
          in
          answers_agree && agree ())
        ops)

let suites =
  [ ( "order_cache",
      [
        Alcotest.test_case "insert/find" `Quick test_insert_find;
        Alcotest.test_case "after normalized" `Quick test_after_normalized;
        Alcotest.test_case "same identity" `Quick test_same_identity;
        Alcotest.test_case "concurrent not cached" `Quick test_concurrent_not_cached;
        Alcotest.test_case "transitive prefill" `Quick test_transitive_prefill;
        Alcotest.test_case "lru eviction" `Quick test_lru_eviction;
        Alcotest.test_case "hit rate without lookups" `Quick
          test_hit_rate_no_lookups;
        Alcotest.test_case "eviction counter" `Quick test_eviction_counter;
        Alcotest.test_case "counters and clear" `Quick test_counters_and_clear;
        Alcotest.test_case "capacity bound after end unlink" `Quick
          test_capacity_bound_after_end_unlink;
        Alcotest.test_case "flipped pair re-indexed" `Quick
          test_flipped_pair_reindexed;
        QCheck_alcotest.to_alcotest prop_cache_consistent_with_engine;
        QCheck_alcotest.to_alcotest prop_cache_matches_model;
      ] );
  ]
