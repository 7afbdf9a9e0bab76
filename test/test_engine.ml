open Kronos

let relation = Alcotest.testable Order.pp_relation Order.relation_equal
let outcome = Alcotest.testable Order.pp_outcome Order.outcome_equal
let assign_error = Alcotest.testable Order.pp_assign_error Order.assign_error_equal

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.failf "unexpected error: %a" Order.pp_assign_error e

let err = function
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e -> e

let before e1 e2 kind = Order.constrain ~kind ~direction:Order.Happens_before e1 e2
let after e1 e2 kind = Order.constrain ~kind ~direction:Order.Happens_after e1 e2

let test_create_and_query () =
  let t = Engine.create () in
  let a = Engine.create_event t in
  let b = Engine.create_event t in
  let rels = ok (Engine.query_order t [ (a, b); (a, a) ]) in
  Alcotest.(check (list relation)) "initial" [ Order.Concurrent; Order.Same ] rels

let test_assign_then_query () =
  let t = Engine.create () in
  let a = Engine.create_event t in
  let b = Engine.create_event t in
  let c = Engine.create_event t in
  let out = ok (Engine.assign_order t [ before a b Order.Must; before b c Order.Must ]) in
  Alcotest.(check (list outcome)) "applied" [ Order.Applied; Order.Applied ] out;
  let rels = ok (Engine.query_order t [ (a, c); (c, a); (a, b) ]) in
  Alcotest.(check (list relation)) "query"
    [ Order.Before; Order.After; Order.Before ] rels

let test_direction_happens_after () =
  let t = Engine.create () in
  let a = Engine.create_event t in
  let b = Engine.create_event t in
  (* a <- b means b happens before a *)
  let out = ok (Engine.assign_order t [ after a b Order.Must ]) in
  Alcotest.(check (list outcome)) "applied" [ Order.Applied ] out;
  Alcotest.(check (list relation)) "b before a" [ Order.After ]
    (ok (Engine.query_order t [ (a, b) ]))

let test_must_violation_aborts_batch () =
  let t = Engine.create () in
  let a = Engine.create_event t in
  let b = Engine.create_event t in
  let c = Engine.create_event t in
  ignore (ok (Engine.assign_order t [ before a b Order.Must ]));
  let edges_before = Engine.edges t in
  (* Batch: c -> a is fine, b -> a contradicts a -> b.  Whole batch aborts;
     the c -> a edge must be rolled back. *)
  let e = err (Engine.assign_order t
                 [ before c a Order.Must; before b a Order.Must ]) in
  Alcotest.check assign_error "violated at index 1" (Order.Must_violated 1) e;
  Alcotest.(check int) "no side effects" edges_before (Engine.edges t);
  Alcotest.(check (list relation)) "c still concurrent with a"
    [ Order.Concurrent ]
    (ok (Engine.query_order t [ (c, a) ]))

let test_must_self_aborts () =
  let t = Engine.create () in
  let a = Engine.create_event t in
  let b = Engine.create_event t in
  let e = err (Engine.assign_order t
                 [ before a b Order.Must; before b b Order.Must ]) in
  Alcotest.check assign_error "self at 1" (Order.Must_self 1) e;
  Alcotest.(check int) "nothing applied" 0 (Engine.edges t)

let test_prefer_reversal () =
  let t = Engine.create () in
  let a = Engine.create_event t in
  let b = Engine.create_event t in
  ignore (ok (Engine.assign_order t [ before a b Order.Must ]));
  let out = ok (Engine.assign_order t [ before b a Order.Prefer ]) in
  Alcotest.(check (list outcome)) "reversed" [ Order.Reversed ] out;
  (* the committed order stands *)
  Alcotest.(check (list relation)) "a before b" [ Order.Before ]
    (ok (Engine.query_order t [ (a, b) ]))

let test_prefer_self_is_noop () =
  let t = Engine.create () in
  let a = Engine.create_event t in
  let out = ok (Engine.assign_order t [ before a a Order.Prefer ]) in
  Alcotest.(check (list outcome)) "already" [ Order.Already ] out

let test_musts_apply_before_prefers () =
  let t = Engine.create () in
  let a = Engine.create_event t in
  let b = Engine.create_event t in
  (* The prefer (b -> a) appears first in the batch; if applied naively in
     order it would make the must (a -> b) impossible.  Kronos applies the
     must first, so the batch succeeds and the prefer reverses. *)
  let out = ok (Engine.assign_order t
                  [ before b a Order.Prefer; before a b Order.Must ]) in
  Alcotest.(check (list outcome)) "prefer reversed, must applied"
    [ Order.Reversed; Order.Applied ] out

let test_already_implied_adds_no_edge () =
  let t = Engine.create () in
  let a = Engine.create_event t in
  let b = Engine.create_event t in
  let c = Engine.create_event t in
  ignore (ok (Engine.assign_order t
                [ before a b Order.Must; before b c Order.Must ]));
  let edges = Engine.edges t in
  let out = ok (Engine.assign_order t [ before a c Order.Must ]) in
  Alcotest.(check (list outcome)) "already" [ Order.Already ] out;
  Alcotest.(check int) "no new edge" edges (Engine.edges t);
  let out = ok (Engine.assign_order t [ before a b Order.Prefer ]) in
  Alcotest.(check (list outcome)) "prefer already" [ Order.Already ] out;
  Alcotest.(check int) "still no new edge" edges (Engine.edges t)

let test_unknown_event () =
  let t = Engine.create () in
  let a = Engine.create_event t in
  ignore (Engine.release_ref t a);
  let b = Engine.create_event t in
  (match Engine.query_order t [ (b, a) ] with
   | Error (Order.Unknown_event e) ->
     Alcotest.(check bool) "stale a" true (Event_id.equal e a)
   | Error e -> Alcotest.failf "wrong error %a" Order.pp_assign_error e
   | Ok _ -> Alcotest.fail "expected error");
  (match Engine.assign_order t [ before a b Order.Must ] with
   | Error (Order.Unknown_event e) ->
     Alcotest.(check bool) "stale a" true (Event_id.equal e a)
   | Error e -> Alcotest.failf "wrong error %a" Order.pp_assign_error e
   | Ok _ -> Alcotest.fail "expected error")

let test_acquire_release_api () =
  let t = Engine.create () in
  let a = Engine.create_event t in
  Alcotest.(check bool) "acquire ok" true
    (Result.is_ok (Engine.acquire_ref t a));
  Alcotest.(check (result int assign_error)) "release" (Ok 0)
    (Engine.release_ref t a);
  Alcotest.(check (result int assign_error)) "final release" (Ok 1)
    (Engine.release_ref t a);
  Alcotest.(check bool) "stale acquire" true
    (Result.is_error (Engine.acquire_ref t a))

let test_batch_atomicity_mixed () =
  (* Conditional test-and-set (Section 2.2): musts act as the condition for
     the prefers in the same batch. *)
  let t = Engine.create () in
  let a = Engine.create_event t in
  let b = Engine.create_event t in
  let c = Engine.create_event t in
  ignore (ok (Engine.assign_order t [ before b a Order.Must ]));
  let e = err (Engine.assign_order t
                 [ before a b Order.Must; before a c Order.Prefer ]) in
  Alcotest.check assign_error "condition failed" (Order.Must_violated 0) e;
  (* the prefer must not have been applied *)
  Alcotest.(check (list relation)) "a/c untouched" [ Order.Concurrent ]
    (ok (Engine.query_order t [ (a, c) ]))

let test_stats () =
  let t = Engine.create () in
  let a = Engine.create_event t in
  let b = Engine.create_event t in
  ignore (ok (Engine.assign_order t [ before a b Order.Must ]));
  ignore (ok (Engine.query_order t [ (a, b) ]));
  ignore (ok (Engine.assign_order t [ before b a Order.Prefer ]));
  ignore (Engine.release_ref t b);
  let s = Engine.stats t in
  Alcotest.(check int) "creates" 2 s.Engine.creates;
  Alcotest.(check int) "queries" 1 s.Engine.queries;
  Alcotest.(check int) "assigns" 2 s.Engine.assigns;
  Alcotest.(check int) "reversals" 1 s.Engine.reversals;
  Alcotest.(check bool) "traversals counted" true (s.Engine.traversals > 0);
  Alcotest.(check bool) "memory" true (Engine.memory_bytes t > 0)

(* Monotonicity property: answers of Before/After never change across any
   sequence of further successful operations. *)
let prop_monotonicity =
  let open QCheck2 in
  let n = 10 in
  let gen_op =
    Gen.(frequency
           [ (5, map2 (fun u v -> `Assign (u, v, Order.Must))
                (int_bound (n - 1)) (int_bound (n - 1)));
             (5, map2 (fun u v -> `Assign (u, v, Order.Prefer))
                (int_bound (n - 1)) (int_bound (n - 1)));
             (1, map (fun u -> `Release u) (int_bound (n - 1)));
           ])
  in
  Test.make ~name:"monotonicity: committed orders never change" ~count:200
    Gen.(list_size (int_bound 60) gen_op)
    (fun ops ->
      let t = Engine.create () in
      let ids = Array.init n (fun _ -> Engine.create_event t) in
      let released = Array.make n false in
      (* committed.(u).(v) = true once a query answered "u before v" *)
      let committed = Array.make_matrix n n false in
      let record_queries () =
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            if u <> v && (not released.(u)) && not released.(v) then
              match Engine.query_order t [ (ids.(u), ids.(v)) ] with
              | Ok [ Order.Before ] -> committed.(u).(v) <- true
              | Ok _ -> ()
              | Error _ -> ()
          done
        done
      in
      let check_committed () =
        let ok = ref true in
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            if committed.(u).(v) && (not released.(u)) && not released.(v)
            then
              match Engine.query_order t [ (ids.(u), ids.(v)) ] with
              | Ok [ Order.Before ] -> ()
              | Ok _ | Error _ -> ok := false
          done
        done;
        !ok
      in
      record_queries ();
      List.for_all
        (fun op ->
          (match op with
           | `Assign (u, v, kind) ->
             if u <> v && (not released.(u)) && not released.(v) then
               ignore (Engine.assign_order t
                         [ Order.constrain ~kind ~direction:Order.Happens_before ids.(u) ids.(v) ])
           | `Release u ->
             if not released.(u) then begin
               released.(u) <- true;
               ignore (Engine.release_ref t ids.(u))
             end);
          let good = check_committed () in
          record_queries ();
          good)
        ops)

(* Coherency property: after arbitrary assign batches, no pair is ordered in
   both directions and the graph has no cycle through any live vertex. *)
let prop_coherency =
  let open QCheck2 in
  let n = 8 in
  let gen_batch =
    Gen.(list_size (int_bound 5)
           (map3 (fun u v k ->
                (u, v, (if k then Order.Must else Order.Prefer)))
              (int_bound (n - 1)) (int_bound (n - 1)) bool))
  in
  Test.make ~name:"coherency: never ordered both ways" ~count:200
    Gen.(list_size (int_bound 20) gen_batch)
    (fun batches ->
      let t = Engine.create () in
      let ids = Array.init n (fun _ -> Engine.create_event t) in
      List.iter
        (fun batch ->
          let reqs =
            List.map
              (fun (u, v, k) -> Order.constrain ~kind:k ~direction:Order.Happens_before ids.(u) ids.(v))
              batch
          in
          ignore (Engine.assign_order t reqs))
        batches;
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v then begin
            let fwd = Graph.reachable (Engine.graph t) ids.(u) ids.(v) in
            let bwd = Graph.reachable (Engine.graph t) ids.(v) ids.(u) in
            if fwd && bwd then ok := false
          end
        done
      done;
      !ok)

(* Batch atomicity and exact labels.  Random batches over at most 30
   events mix Musts that rise in creation order, falling Musts (some
   relabel, some close a cycle and abort the batch after earlier Musts
   were staged), self Musts (which abort) and Prefers.  Every batch goes
   into a default engine, a 2-chain engine (labels saturate) and a
   label-free engine, and, unless the model says it aborts, into a clean
   twin of each that never sees an aborted batch.  After each one, every
   engine must report the outcome a DFS model of the committed edges
   predicts and answer every pair as the model does, and hold its clean
   twin's commitments, chain lengths, label mode and chain count: an
   abort leaves nothing behind, not even a dropped label index. *)
let prop_batches_atomic_labels_exact =
  let open QCheck2 in
  let gen_constraint n =
    Gen.(
      let pair = pair (int_bound (n - 1)) (int_bound (n - 1)) in
      frequency
        [ (6, map (fun (u, v) -> (min u v, max u v, Order.Must)) pair);
          (2, map (fun (u, v) -> (max u v, min u v, Order.Must)) pair);
          (1, map (fun u -> (u, u, Order.Must)) (int_bound (n - 1)));
          (3, map (fun (u, v) -> (u, v, Order.Prefer)) pair) ])
  in
  let gen =
    Gen.(
      int_range 2 30 >>= fun n ->
      map (fun batches -> (n, batches))
        (list_size (int_range 1 20)
           (list_size (int_range 1 8) (gen_constraint n))))
  in
  let print (n, batches) =
    Printf.sprintf "n=%d %s" n
      (String.concat " | "
         (List.map
            (fun b ->
              String.concat ","
                (List.map
                   (fun (u, v, k) ->
                     Printf.sprintf "%d%s%d" u
                       (if k = Order.Must then "<" else "<?") v)
                   b))
            batches))
  in
  (* The batch semantics over an adjacency matrix: Musts in request order,
     then Prefers; any failing Must leaves the edges as they were. *)
  let reach adj u v =
    let n = Array.length adj in
    let seen = Array.make n false in
    let rec dfs x =
      x = v
      || (not seen.(x))
         && begin
           seen.(x) <- true;
           let found = ref false in
           for y = 0 to n - 1 do
             if (not !found) && adj.(x).(y) then found := dfs y
           done;
           !found
         end
    in
    dfs u
  in
  let model_apply adj batch =
    let tent = Array.map Array.copy adj in
    let indexed = List.mapi (fun i c -> (i, c)) batch in
    let outcomes = Array.make (List.length batch) Order.Already in
    let rec musts = function
      | [] -> Ok ()
      | (i, (u, v, _)) :: rest ->
        if u = v then Error (Order.Must_self i)
        else if reach tent u v then musts rest
        else if reach tent v u then Error (Order.Must_violated i)
        else begin
          tent.(u).(v) <- true;
          outcomes.(i) <- Order.Applied;
          musts rest
        end
    in
    let prefer (i, (u, v, _)) =
      if u = v || reach tent u v then ()
      else if reach tent v u then outcomes.(i) <- Order.Reversed
      else begin
        tent.(u).(v) <- true;
        outcomes.(i) <- Order.Applied
      end
    in
    match
      musts (List.filter (fun (_, (_, _, k)) -> k = Order.Must) indexed)
    with
    | Error e -> (adj, Error e)
    | Ok () ->
      List.iter prefer
        (List.filter (fun (_, (_, _, k)) -> k = Order.Prefer) indexed);
      (tent, Ok (Array.to_list outcomes))
  in
  Test.make ~name:"batches stay atomic and labels exact" ~count:100 ~print gen
    (fun (n, batches) ->
      let engines =
        List.map
          (fun max_chains ->
            let make () =
              let t =
                Engine.create
                  ~config:{ Engine.default_config with max_chains } ()
              in
              (t, Array.init n (fun _ -> Engine.create_event t))
            in
            let t, ids = make () and clean, _ = make () in
            (t, clean, ids))
          [ Engine.default_config.max_chains; 2; 0 ]
      in
      let adj = ref (Array.make_matrix n n false) in
      List.for_all
        (fun batch ->
          let adj', expected = model_apply !adj batch in
          adj := adj';
          let expected_rel u v =
            if u = v then Order.Same
            else if reach !adj u v then Order.Before
            else if reach !adj v u then Order.After
            else Order.Concurrent
          in
          List.for_all
            (fun (t, clean, ids) ->
              let specs =
                List.map
                  (fun (u, v, kind) ->
                    Order.constrain ~kind ~direction:Order.Happens_before
                      ids.(u) ids.(v))
                  batch
              in
              let result = Engine.assign_order t specs in
              let agree = ref (result = expected) in
              (match expected with
               | Ok _ ->
                 if Engine.assign_order clean specs <> expected then
                   agree := false
               | Error _ -> ());
              let g = Engine.graph t and gc = Engine.graph clean in
              for u = 0 to n - 1 do
                if Graph.commitment g ids.(u) <> Graph.commitment gc ids.(u)
                   || Graph.chain_length g ids.(u)
                      <> Graph.chain_length gc ids.(u)
                then agree := false;
                for v = 0 to n - 1 do
                  match Engine.query_order t [ (ids.(u), ids.(v)) ] with
                  | Ok [ r ] when r = expected_rel u v -> ()
                  | Ok _ | Error _ -> agree := false
                done
              done;
              !agree
              && Engine.labels_live t = Engine.labels_live clean
              && Engine.chain_count t = Engine.chain_count clean)
            engines)
        batches)

let suites =
  [ ( "engine",
      [
        Alcotest.test_case "create and query" `Quick test_create_and_query;
        Alcotest.test_case "assign then query" `Quick test_assign_then_query;
        Alcotest.test_case "happens-after direction" `Quick test_direction_happens_after;
        Alcotest.test_case "must violation aborts batch" `Quick test_must_violation_aborts_batch;
        Alcotest.test_case "must self aborts" `Quick test_must_self_aborts;
        Alcotest.test_case "prefer reversal" `Quick test_prefer_reversal;
        Alcotest.test_case "prefer self noop" `Quick test_prefer_self_is_noop;
        Alcotest.test_case "musts before prefers" `Quick test_musts_apply_before_prefers;
        Alcotest.test_case "implied order adds no edge" `Quick test_already_implied_adds_no_edge;
        Alcotest.test_case "unknown event" `Quick test_unknown_event;
        Alcotest.test_case "acquire/release api" `Quick test_acquire_release_api;
        Alcotest.test_case "conditional batch" `Quick test_batch_atomicity_mixed;
        Alcotest.test_case "stats" `Quick test_stats;
        QCheck_alcotest.to_alcotest prop_monotonicity;
        QCheck_alcotest.to_alcotest prop_coherency;
        QCheck_alcotest.to_alcotest prop_batches_atomic_labels_exact;
      ] );
  ]
