(* Cross-cutting structural invariants of the engine under random operation
   sequences, checked against the introspection API. *)

open Kronos

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.failf "unexpected error: %a" Order.pp_assign_error e

let test_empty_batches () =
  let t = Engine.create () in
  Alcotest.(check int) "empty query" 0
    (List.length (ok (Engine.query_order t [])));
  Alcotest.(check int) "empty assign" 0
    (List.length (ok (Engine.assign_order t [])))

let test_growth_under_load () =
  (* a tiny initial capacity must be invisible to behaviour *)
  let t =
    Engine.create ~config:{ Engine.default_config with Engine.initial_capacity = 2 } ()
  in
  let ids = Array.init 500 (fun _ -> Engine.create_event t) in
  for i = 0 to 498 do
    ignore
      (ok (Engine.assign_order t
             [ Order.must_before ids.(i) ids.(i + 1) ]))
  done;
  Alcotest.(check (list Alcotest.int)) "long chain holds" []
    (List.filter_map
       (fun i ->
         match ok (Engine.query_order t [ (ids.(0), ids.(i)) ]) with
         | [ Order.Before ] -> None
         | _ -> Some i)
       (List.init 499 (fun i -> i + 1)))

(* Structural invariants after random programs:
   - every edge endpoint is a live event;
   - in_degree of each vertex equals the number of edges pointing at it;
   - live_count matches the number of events iter_live visits;
   - edge_count matches fold_edges. *)
let prop_structural_invariants =
  let open QCheck2 in
  let n = 12 in
  let gen_op =
    Gen.(frequency
           [ (4, map2 (fun u v -> `Assign (u, v)) (int_bound (n - 1)) (int_bound (n - 1)));
             (2, map (fun u -> `Release u) (int_bound (n - 1)));
             (1, map (fun u -> `Acquire u) (int_bound (n - 1)));
             (1, return `Create);
           ])
  in
  Test.make ~name:"graph structural invariants under random programs" ~count:150
    Gen.(list_size (int_bound 80) gen_op)
    (fun ops ->
      let t = Engine.create () in
      let ids = ref (Array.to_list (Array.init n (fun _ -> Engine.create_event t))) in
      let pick i = List.nth !ids (i mod List.length !ids) in
      List.iter
        (fun op ->
          match op with
          | `Assign (u, v) ->
            ignore
              (Engine.assign_order t
                 [ Order.prefer_before (pick u) (pick v) ])
          | `Release u -> ignore (Engine.release_ref t (pick u))
          | `Acquire u -> ignore (Engine.acquire_ref t (pick u))
          | `Create -> ids := Engine.create_event t :: !ids)
        ops;
      let g = Engine.graph t in
      (* collect live events *)
      let live = ref [] in
      Graph.iter_live g (fun e -> live := e :: !live);
      let live_ok = List.length !live = Graph.live_count g in
      (* edges *)
      let edge_list = Graph.fold_edges g (fun acc u v -> (u, v) :: acc) [] in
      let edges_ok = List.length edge_list = Graph.edge_count g in
      let endpoints_ok =
        List.for_all
          (fun (u, v) -> Graph.is_live g u && Graph.is_live g v)
          edge_list
      in
      let indeg_ok =
        List.for_all
          (fun e ->
            let expected =
              List.length (List.filter (fun (_, v) -> Event_id.equal v e) edge_list)
            in
            Graph.in_degree g e = Some expected)
          !live
      in
      let outdeg_ok =
        List.for_all
          (fun e ->
            let expected =
              List.length (List.filter (fun (u, _) -> Event_id.equal u e) edge_list)
            in
            Graph.out_degree g e = Some expected)
          !live
      in
      live_ok && edges_ok && endpoints_ok && indeg_ok && outdeg_ok)

(* Refcount bookkeeping: acquire/release must be exactly inverse, and an
   event with k extra acquires needs k+1 releases to die. *)
let prop_refcounts =
  let open QCheck2 in
  Test.make ~name:"refcount acquire/release inverse" ~count:200
    Gen.(int_bound 10)
    (fun k ->
      let t = Engine.create () in
      let e = Engine.create_event t in
      for _ = 1 to k do
        match Engine.acquire_ref t e with
        | Ok () -> ()
        | Error _ -> failwith "acquire failed"
      done;
      (* k + 1 releases: the first k keep it alive *)
      let alive_through =
        List.for_all
          (fun _ ->
            match Engine.release_ref t e with
            | Ok 0 -> Engine.live_events t = 1
            | Ok _ | Error _ -> false)
          (List.init k Fun.id)
      in
      let died =
        match Engine.release_ref t e with
        | Ok 1 -> Engine.live_events t = 0
        | Ok _ | Error _ -> false
      in
      alive_through && died)

(* GC and slot reuse interact with ordering: recycled slots must never
   resurrect old relationships. *)
let test_slot_reuse_no_ghost_edges () =
  let t = Engine.create () in
  let a = Engine.create_event t in
  let b = Engine.create_event t in
  ignore (ok (Engine.assign_order t [ Order.must_before a b ]));
  ignore (Engine.release_ref t b);
  ignore (Engine.release_ref t a);
  Alcotest.(check int) "collected" 0 (Engine.live_events t);
  (* new events reuse the same slots *)
  let a' = Engine.create_event t in
  let b' = Engine.create_event t in
  Alcotest.(check bool) "slots recycled" true
    (Event_id.slot a' = Event_id.slot b || Event_id.slot a' = Event_id.slot a);
  Alcotest.(check (list (Alcotest.testable Order.pp_relation Order.relation_equal)))
    "no ghost order" [ Order.Concurrent ]
    (ok (Engine.query_order t [ (a', b') ]))

let test_label_hits () =
  (* with the default config the chain-label compare answers positive
     queries with zero traversals *)
  let t = Engine.create () in
  let a = Engine.create_event t in
  let b = Engine.create_event t in
  ignore (ok (Engine.assign_order t [ Order.must_before a b ]));
  for _ = 1 to 10 do
    ignore (ok (Engine.query_order t [ (a, b) ]))
  done;
  Alcotest.(check bool) "label hits" true (Engine.label_hits t >= 10);
  Alcotest.(check int) "no traversals" 0 (Engine.stats t).traversals;
  Alcotest.(check bool) "chains live" true (Engine.chain_count t > 0)

let suites =
  [ ( "invariants",
      [
        Alcotest.test_case "empty batches" `Quick test_empty_batches;
        Alcotest.test_case "growth under load" `Quick test_growth_under_load;
        Alcotest.test_case "slot reuse has no ghosts" `Quick
          test_slot_reuse_no_ghost_edges;
        Alcotest.test_case "label hits" `Quick test_label_hits;
        QCheck_alcotest.to_alcotest prop_structural_invariants;
        QCheck_alcotest.to_alcotest prop_refcounts;
      ] );
  ]
