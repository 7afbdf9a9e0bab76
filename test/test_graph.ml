open Kronos

let relation = Alcotest.testable Order.pp_relation Order.relation_equal

let query_exn g a b =
  match Graph.query g a b with
  | Ok r -> r
  | Error e -> Alcotest.failf "stale event %a" Event_id.pp e

let test_create_refcount () =
  let g = Graph.create () in
  let a = Graph.create_event g in
  Alcotest.(check (option int)) "initial ref" (Some 1) (Graph.refcount g a);
  Alcotest.(check bool) "acquire" true (Graph.acquire_ref g a);
  Alcotest.(check (option int)) "ref 2" (Some 2) (Graph.refcount g a);
  Alcotest.(check (option int)) "release keeps" (Some 0) (Graph.release_ref g a);
  Alcotest.(check (option int)) "ref 1" (Some 1) (Graph.refcount g a);
  Alcotest.(check (option int)) "release collects" (Some 1) (Graph.release_ref g a);
  Alcotest.(check bool) "dead" false (Graph.is_live g a);
  Alcotest.(check int) "live" 0 (Graph.live_count g)

let test_query_relations () =
  let g = Graph.create () in
  let a = Graph.create_event g in
  let b = Graph.create_event g in
  let c = Graph.create_event g in
  Alcotest.check relation "same" Order.Same (query_exn g a a);
  Alcotest.check relation "concurrent" Order.Concurrent (query_exn g a b);
  Graph.add_edge g a b;
  Graph.add_edge g b c;
  Alcotest.check relation "direct" Order.Before (query_exn g a b);
  Alcotest.check relation "flipped" Order.After (query_exn g b a);
  Alcotest.check relation "transitive" Order.Before (query_exn g a c);
  Alcotest.check relation "transitive flipped" Order.After (query_exn g c a)

let test_stale_query () =
  let g = Graph.create () in
  let a = Graph.create_event g in
  let b = Graph.create_event g in
  ignore (Graph.release_ref g a);
  (match Graph.query g a b with
   | Error e -> Alcotest.(check bool) "stale is a" true (Event_id.equal e a)
   | Ok _ -> Alcotest.fail "expected stale error");
  Alcotest.(check bool) "reachable false on stale" false (Graph.reachable g a b)

let test_slot_reuse_generation () =
  let g = Graph.create () in
  let a = Graph.create_event g in
  ignore (Graph.release_ref g a);
  let b = Graph.create_event g in
  (* b reuses a's slot but has a new generation: a must stay invalid. *)
  Alcotest.(check int) "slot reused" (Event_id.slot a) (Event_id.slot b);
  Alcotest.(check bool) "different ids" false (Event_id.equal a b);
  Alcotest.(check bool) "old id dead" false (Graph.is_live g a);
  Alcotest.(check bool) "new id live" true (Graph.is_live g b);
  Alcotest.(check bool) "acquire stale" false (Graph.acquire_ref g a);
  Alcotest.(check (option int)) "release stale" None (Graph.release_ref g a)

(* Figure 4 of the paper: A -> {B, D}, B -> C, D -> C, refs held only on A
   and E (standalone).  Releasing unrelated E collects only E; releasing A
   collects the whole pinned component. *)
let test_gc_pinning_figure4 () =
  let g = Graph.create () in
  let a = Graph.create_event g in
  let b = Graph.create_event g in
  let c = Graph.create_event g in
  let d = Graph.create_event g in
  let e = Graph.create_event g in
  Graph.add_edge g a b;
  Graph.add_edge g a d;
  Graph.add_edge g b c;
  Graph.add_edge g d c;
  (* Drop the refs on B, C, D: they stay pinned by A. *)
  List.iter (fun x -> ignore (Graph.release_ref g x)) [ b; c; d ];
  Alcotest.(check int) "still live" 5 (Graph.live_count g);
  Alcotest.(check bool) "b pinned" true (Graph.is_live g b);
  Alcotest.check relation "a before c" Order.Before (query_exn g a c);
  (* Releasing E collects just E. *)
  Alcotest.(check (option int)) "e collected" (Some 1) (Graph.release_ref g e);
  Alcotest.(check int) "four live" 4 (Graph.live_count g);
  (* Releasing A cascades through the whole component. *)
  Alcotest.(check (option int)) "cascade" (Some 4) (Graph.release_ref g a);
  Alcotest.(check int) "none live" 0 (Graph.live_count g);
  Alcotest.(check int) "no edges" 0 (Graph.edge_count g)

let test_gc_waits_for_predecessor () =
  let g = Graph.create () in
  let a = Graph.create_event g in
  let b = Graph.create_event g in
  Graph.add_edge g a b;
  (* b's refcount drops to zero but a still points at it. *)
  Alcotest.(check (option int)) "b pinned" (Some 0) (Graph.release_ref g b);
  Alcotest.(check bool) "b live" true (Graph.is_live g b);
  (* once a goes away, b follows *)
  Alcotest.(check (option int)) "both" (Some 2) (Graph.release_ref g a)

let test_gc_chain_linear () =
  (* Collecting a chain a1 -> a2 -> ... -> an by one release. *)
  let g = Graph.create () in
  let n = 1000 in
  let ids = Array.init n (fun _ -> Graph.create_event g) in
  for i = 0 to n - 2 do
    Graph.add_edge g ids.(i) ids.(i + 1)
  done;
  for i = 1 to n - 1 do
    ignore (Graph.release_ref g ids.(i))
  done;
  Alcotest.(check int) "all live" n (Graph.live_count g);
  Alcotest.(check (option int)) "collect whole chain" (Some n)
    (Graph.release_ref g ids.(0));
  Alcotest.(check int) "empty" 0 (Graph.live_count g)

let test_gc_diamond_partial () =
  (* a -> b, c -> b: b waits for both predecessors. *)
  let g = Graph.create () in
  let a = Graph.create_event g in
  let b = Graph.create_event g in
  let c = Graph.create_event g in
  Graph.add_edge g a b;
  Graph.add_edge g c b;
  ignore (Graph.release_ref g b);
  Alcotest.(check (option int)) "a out, b waits on c" (Some 1)
    (Graph.release_ref g a);
  Alcotest.(check bool) "b still pinned by c" true (Graph.is_live g b);
  Alcotest.(check (option int)) "c releases b too" (Some 2)
    (Graph.release_ref g c)

let test_rollback () =
  let g = Graph.create () in
  let a = Graph.create_event g in
  let b = Graph.create_event g in
  Graph.add_edge g a b;
  Alcotest.(check int) "one edge" 1 (Graph.edge_count g);
  Graph.remove_last_edge g a b;
  Alcotest.(check int) "rolled back" 0 (Graph.edge_count g);
  Alcotest.check relation "concurrent again" Order.Concurrent (query_exn g a b);
  Alcotest.(check (option int)) "in-degree restored" (Some 0)
    (Graph.in_degree g b);
  Alcotest.check_raises "wrong rollback"
    (Invalid_argument "Graph.remove_last_edge: not the last edge") (fun () ->
      Graph.remove_last_edge g a b)

let test_growth () =
  let g = Graph.create ~initial_capacity:16 () in
  let ids = Array.init 200 (fun _ -> Graph.create_event g) in
  for i = 0 to 198 do
    Graph.add_edge g ids.(i) ids.(i + 1)
  done;
  Alcotest.(check int) "live" 200 (Graph.live_count g);
  Alcotest.check relation "long path" Order.Before
    (query_exn g ids.(0) ids.(199));
  Alcotest.(check bool) "capacity grew" true (Graph.capacity g >= 200)

let test_introspection () =
  let g = Graph.create () in
  let a = Graph.create_event g in
  let b = Graph.create_event g in
  let c = Graph.create_event g in
  Graph.add_edge g a b;
  Graph.add_edge g a c;
  Alcotest.(check (option int)) "out" (Some 2) (Graph.out_degree g a);
  Alcotest.(check (option int)) "in" (Some 1) (Graph.in_degree g b);
  Alcotest.(check int) "successors" 2 (List.length (Graph.successors g a));
  let live = ref 0 in
  Graph.iter_live g (fun _ -> incr live);
  Alcotest.(check int) "iter_live" 3 !live;
  let edges = Graph.fold_edges g (fun acc _ _ -> acc + 1) 0 in
  Alcotest.(check int) "fold_edges" 2 edges;
  Alcotest.(check bool) "memory positive" true (Graph.memory_bytes g > 0)

(* [memory_bytes] counts every capacity-sized structure: across one
   doubling it must grow by at least the words each new slot costs.  Per
   slot: nine int arrays (refcount, gen, indeg, rank, marks, queue,
   queue_b, chain_of, chain_pos), five pointer arrays (succ, pred, labels,
   and with digests the link stores and heads), and the sparse + dense
   arrays of the [dirty] set.  An edge-less slot owns nothing else: its
   adjacency and link store are shared empty sentinels. *)
let test_memory_bytes_across_doubling () =
  let g = Graph.create ~initial_capacity:64 () in
  for _ = 1 to 64 do
    ignore (Graph.create_event g)
  done;
  let cap = Graph.capacity g in
  let before = Graph.memory_bytes g in
  ignore (Graph.create_event g);
  Alcotest.(check int) "capacity doubled" (2 * cap) (Graph.capacity g);
  let word = Sys.word_size / 8 in
  let per_slot_words = 9 + 5 + 2 in
  let grown = Graph.memory_bytes g - before in
  if grown < per_slot_words * word * cap then
    Alcotest.failf "memory_bytes grew by %d bytes over %d new slots, below %d"
      grown cap (per_slot_words * word * cap)

(* [memory_bytes] against the heap itself: the live words a graph adds
   (measured after compactions, so exact) must match the reported bytes
   within 5%, at two sizes — each just past a capacity doubling, the
   worst case for per-slot arrays — with digests on and off, for an
   edge-less graph (the shape of Fig 10) and for a random DAG with five
   edges per event, oriented low -> high.  Identifiers are rebuilt from
   slots rather than kept, so nothing but the graph is measured. *)
let test_memory_bytes_match_heap () =
  let word = Sys.word_size / 8 in
  List.iter
    (fun (n, digests, edges) ->
      let rng = Random.State.make [| n |] in
      let id s = Event_id.make ~slot:s ~gen:0 in
      Gc.compact ();
      let w0 = (Gc.stat ()).Gc.live_words in
      let g = Graph.create ~digests () in
      for _ = 1 to n do
        ignore (Graph.create_event g)
      done;
      for _ = 1 to edges * n do
        let u = Random.State.int rng n and v = Random.State.int rng n in
        if u <> v then Graph.add_edge g (id (min u v)) (id (max u v))
      done;
      Graph.commit_batch g;
      Gc.compact ();
      let live = ((Gc.stat ()).Gc.live_words - w0) * word in
      let reported = Graph.memory_bytes g in
      ignore (Sys.opaque_identity g);
      let err = float_of_int (abs (reported - live)) /. float_of_int live in
      if err > 0.05 then
        Alcotest.failf
          "n=%d digests=%b edges/event=%d: memory_bytes %d vs %d live (%.1f%%)"
          n digests edges reported live (100. *. err))
    [
      (1_100, true, 0); (1_100, false, 0); (8_200, true, 0); (8_200, false, 0);
      (1_100, true, 5); (1_100, false, 5); (8_200, true, 5); (8_200, false, 5);
    ]

(* Work accounting of the traversal counters.  The chain is built in
   creation order, so the rank index admits every edge in O(1) without a
   single traversal; each positive query then counts every distinct slot
   inserted into a visited set, endpoints included (the destination used to
   be dropped when the search ended in Found), and rank-refuted queries
   count nothing at all.  The label index is disabled here so the queries
   actually pay the BFS whose accounting we are asserting. *)
let test_visited_accounting () =
  let g = Graph.create ~max_chains:0 () in
  let a = Graph.create_event g in
  let b = Graph.create_event g in
  let c = Graph.create_event g in
  Graph.add_edge g a b;
  Graph.add_edge g b c;
  Alcotest.(check int) "creation-order edges traverse nothing" 0
    (Graph.traversal_count g);
  Alcotest.(check bool) "a->b" true (Graph.reachable g a b);
  Alcotest.(check int) "one traversal" 1 (Graph.traversal_count g);
  Alcotest.(check int) "direct hit counts both endpoints" 2
    (Graph.visited_total g);
  (* two-hop: forward side visits {a, b}, backward side seeds {c}; the
     meeting vertex belongs to exactly one side, so nothing double-counts *)
  Alcotest.(check bool) "a->c" true (Graph.reachable g a c);
  Alcotest.(check int) "two traversals" 2 (Graph.traversal_count g);
  Alcotest.(check int) "chain visit accounting" (2 + 3)
    (Graph.visited_total g);
  (* wrong direction: refuted by rank comparison alone *)
  let pruned0 = Graph.rank_pruned_count g in
  Alcotest.(check bool) "c->a refuted" false (Graph.reachable g c a);
  Alcotest.(check int) "no extra traversal" 2 (Graph.traversal_count g);
  Alcotest.(check int) "no extra visits" 5 (Graph.visited_total g);
  Alcotest.(check int) "refuted by rank" (pruned0 + 1)
    (Graph.rank_pruned_count g);
  (* an out-of-order edge pays one bounded cycle probe plus a relabel *)
  let x = Graph.create_event g in
  let y = Graph.create_event g in
  let relabels0 = Graph.rank_relabel_count g in
  Graph.add_edge g y x;
  Alcotest.(check int) "out-of-order edge relabels" (relabels0 + 1)
    (Graph.rank_relabel_count g);
  Alcotest.(check int) "cycle probe counted as traversal" 3
    (Graph.traversal_count g);
  Alcotest.(check int) "cycle probe visits its seed" 6
    (Graph.visited_total g);
  (match (Graph.rank g y, Graph.rank g x) with
   | Some ry, Some rx ->
     Alcotest.(check bool) "ranks repaired" true (ry < rx)
   | _ -> Alcotest.fail "live events must have ranks")

(* [remove_last_edge] outside the batch protocol: creating an event seals
   the rollback journal, so undoing the edge admitted just before finds no
   journal group and falls back to the deterministic full label rebuild.
   The rebuilt index may decide more pairs than a graph that never saw the
   edge (the rebuild assigns every live event a chain), but every answer
   it commits to, and every query, must match that graph. *)
let test_label_rebuild_fallback () =
  let edges = [ (0, 1); (1, 2); (0, 3); (3, 4); (2, 5); (4, 5); (6, 7) ] in
  let build () =
    let g = Graph.create () in
    let ids = Array.init 8 (fun _ -> Graph.create_event g) in
    List.iter (fun (u, v) -> Graph.add_edge g ids.(u) ids.(v)) edges;
    (g, ids)
  in
  let g, ids = build () in
  Graph.add_edge g ids.(5) ids.(6);
  let extra = Graph.create_event g in
  let rebuilds = Graph.label_rebuild_count g in
  Graph.remove_last_edge g ids.(5) ids.(6);
  Alcotest.(check int) "one full label rebuild" (rebuilds + 1)
    (Graph.label_rebuild_count g);
  let fresh, fids = build () in
  let fextra = Graph.create_event fresh in
  let ids = Array.append ids [| extra |] in
  let fids = Array.append fids [| fextra |] in
  let decided = ref 0 in
  Array.iteri
    (fun i u ->
      Array.iteri
        (fun j v ->
          if i <> j then begin
            let what = Printf.sprintf "%d -> %d" i j in
            (match Graph.label_reachable g u v with
             | Some ans ->
               incr decided;
               Alcotest.(check bool) ("label " ^ what)
                 (Graph.reachable fresh fids.(i) fids.(j)) ans
             | None -> ());
            Alcotest.(check bool) ("query " ^ what) true
              (Graph.query fresh fids.(i) fids.(j) = Graph.query g u v)
          end)
        ids)
    ids;
  Alcotest.(check int) "rebuilt labels decide every pair" (9 * 8) !decided

(* Differential property for the rank index: drive a random interleaving of
   create / add_edge / release / rollback / snapshot operations against
   both the real graph and a naive reference model (adjacency lists,
   refcounts and the same strict-GC rule), and after every single step
   check that liveness, GC counts and pairwise reachability agree with the
   model and that rank u < rank v holds for every live edge — through slot
   reuse, GC cascades, edge rollback and snapshot round-trips.  The same
   program
   also exercises the chain-label index: whenever [Graph.label_reachable]
   commits to an answer it must bit-match the model — over-approximation
   is as much a bug as under-approximation.  Instantiated three times:
   with the default chain cap (labels answer nearly everything), with a
   cap of 2 (constant saturation, so label answers and BFS fallbacks
   interleave) and with the index disabled outright. *)
let make_rank_differential ~max_chains name =
  let open QCheck2 in
  let gen_op =
    Gen.frequency
      [
        (4, Gen.return `Create);
        (6, Gen.map2 (fun a b -> `Edge (a, b)) (Gen.int_bound 999) (Gen.int_bound 999));
        (2, Gen.map (fun a -> `Release a) (Gen.int_bound 999));
        (1, Gen.return `Rollback);
        (1, Gen.return `Snapshot);
      ]
  in
  Test.make ~name ~count:120
    (Gen.list_size (Gen.int_bound 70) gen_op)
    (fun ops ->
      let g = ref (Graph.create ~initial_capacity:4 ~max_chains ()) in
      let max_n = 20 in
      let ids = Array.make max_n Event_id.none in
      let rc = Array.make max_n 0 in
      let live = Array.make max_n false in
      let succs = Array.make max_n [] in
      let indeg = Array.make max_n 0 in
      let created = ref 0 in
      (* the one edge remove_last_edge may legally undo right now *)
      let last_edge = ref None in
      let model_reach u v =
        let seen = Array.make max_n false in
        let rec dfs x =
          List.exists
            (fun y ->
              y = v
              || ((not seen.(y))
                  && begin
                    seen.(y) <- true;
                    dfs y
                  end))
            succs.(x)
        in
        dfs u
      in
      let rec collect i killed =
        if live.(i) && rc.(i) = 0 && indeg.(i) = 0 then begin
          live.(i) <- false;
          incr killed;
          let out = succs.(i) in
          succs.(i) <- [];
          List.iter (fun j -> indeg.(j) <- indeg.(j) - 1) out;
          List.iter (fun j -> collect j killed) out
        end
      in
      let check_agree step =
        for i = 0 to !created - 1 do
          if Graph.is_live !g ids.(i) <> live.(i) then
            Test.fail_reportf "step %d: liveness mismatch on event %d" step i
        done;
        for u = 0 to !created - 1 do
          if live.(u) then
            List.iter
              (fun v ->
                match (Graph.rank !g ids.(u), Graph.rank !g ids.(v)) with
                | Some ru, Some rv ->
                  if ru >= rv then
                    Test.fail_reportf
                      "step %d: rank invariant broken on edge %d->%d (%d >= %d)"
                      step u v ru rv
                | _ -> Test.fail_reportf "step %d: live event without rank" step)
              succs.(u)
        done;
        for u = 0 to !created - 1 do
          for v = 0 to !created - 1 do
            if u <> v && live.(u) && live.(v) then begin
              if Graph.reachable !g ids.(u) ids.(v) <> model_reach u v then
                Test.fail_reportf "step %d: reachability mismatch %d -> %d"
                  step u v;
              match Graph.label_reachable !g ids.(u) ids.(v) with
              | Some ans ->
                if max_chains = 0 && ans then
                  Test.fail_reportf
                    "step %d: disabled label index claimed %d -> %d" step u v;
                if ans <> model_reach u v then
                  Test.fail_reportf "step %d: label mismatch %d -> %d" step u v
              | None -> ()
            end
          done
        done
      in
      List.iteri
        (fun step op ->
          (match op with
           | `Create ->
             if !created < max_n then begin
               let e = Graph.create_event !g in
               ids.(!created) <- e;
               rc.(!created) <- 1;
               live.(!created) <- true;
               succs.(!created) <- [];
               indeg.(!created) <- 0;
               incr created;
               last_edge := None
             end
           | `Edge (a, b) ->
             if !created > 0 then begin
               let u = a mod !created and v = b mod !created in
               if live.(u) && live.(v) && not (List.mem v succs.(u)) then begin
                 let expect = (u <> v) && not (model_reach v u) in
                 let admitted = Graph.try_add_edge !g ids.(u) ids.(v) in
                 if admitted <> expect then
                   Test.fail_reportf
                     "step %d: edge %d->%d admitted=%b, model expects %b" step
                     u v admitted expect;
                 if admitted then begin
                   succs.(u) <- v :: succs.(u);
                   indeg.(v) <- indeg.(v) + 1;
                   last_edge := Some (u, v)
                 end
               end
             end
           | `Release a ->
             if !created > 0 then begin
               let i = a mod !created in
               let expected =
                 if (not live.(i)) || rc.(i) = 0 then None
                 else begin
                   rc.(i) <- rc.(i) - 1;
                   let killed = ref 0 in
                   collect i killed;
                   Some !killed
                 end
               in
               let got = Graph.release_ref !g ids.(i) in
               if got <> expected then
                 Test.fail_reportf "step %d: release %d disagrees with model"
                   step i;
               last_edge := None
             end
           | `Rollback -> (
               match !last_edge with
               | None -> ()
               | Some (u, v) ->
                 Graph.remove_last_edge !g ids.(u) ids.(v);
                 succs.(u) <- List.filter (fun x -> x <> v) succs.(u);
                 indeg.(v) <- indeg.(v) - 1;
                 last_edge := None)
           | `Snapshot ->
             g := Graph.of_snapshot ~max_chains (Graph.to_snapshot !g);
             last_edge := None);
          check_agree step)
        ops;
      true)

let prop_rank_index_differential =
  make_rank_differential ~max_chains:64
    "rank index matches reference model under interleavings"

let prop_label_saturated_differential =
  make_rank_differential ~max_chains:2
    "chain labels stay exact under cap saturation"

let prop_label_disabled_differential =
  make_rank_differential ~max_chains:0
    "disabled label index never answers"

(* Model-based property: build a random graph through cycle-checked edge
   additions; the graph must agree with a reference transitive closure and
   must never contain a cycle. *)
let prop_matches_closure =
  let open QCheck2 in
  let n = 12 in
  let gen_edges = Gen.(list_size (int_bound 60) (pair (int_bound (n - 1)) (int_bound (n - 1)))) in
  Test.make ~name:"graph matches reference transitive closure" ~count:150
    gen_edges
    (fun edges ->
      let g = Graph.create () in
      let ids = Array.init n (fun _ -> Graph.create_event g) in
      let closure = Array.make_matrix n n false in
      let reach u v =
        let visited = Array.make n false in
        let rec dfs x =
          x = v
          || (not visited.(x)
              && begin
                visited.(x) <- true;
                let found = ref false in
                for y = 0 to n - 1 do
                  if closure.(x).(y) && dfs y then found := true
                done;
                !found
              end)
        in
        dfs u
      in
      List.iter
        (fun (u, v) ->
          (* mimic the engine: add only when coherent and not implied *)
          if u <> v && not (Graph.reachable g ids.(v) ids.(u))
             && not (Graph.reachable g ids.(u) ids.(v))
          then begin
            Graph.add_edge g ids.(u) ids.(v);
            closure.(u).(v) <- true
          end)
        edges;
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v then begin
            let expected = reach u v in
            if Graph.reachable g ids.(u) ids.(v) <> expected then ok := false;
            (* acyclicity: never both directions *)
            if expected && reach v u then ok := false
          end
        done
      done;
      !ok)

(* Property: GC never breaks an ordering between two still-referenced
   events. *)
let prop_gc_preserves_order =
  let open QCheck2 in
  let n = 10 in
  let gen =
    Gen.(pair
           (list_size (int_bound 40) (pair (int_bound (n - 1)) (int_bound (n - 1))))
           (list_size (int_bound 6) (int_bound (n - 1))))
  in
  Test.make ~name:"gc preserves order among live events" ~count:150 gen
    (fun (edges, releases) ->
      let g = Graph.create () in
      let ids = Array.init n (fun _ -> Graph.create_event g) in
      List.iter
        (fun (u, v) ->
          if u <> v && not (Graph.reachable g ids.(v) ids.(u)) then
            if not (Graph.reachable g ids.(u) ids.(v)) then
              Graph.add_edge g ids.(u) ids.(v))
        edges;
      (* record orders among all pairs *)
      let before = Array.make_matrix n n false in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          before.(u).(v) <- Graph.reachable g ids.(u) ids.(v)
        done
      done;
      let released = Array.make n false in
      List.iter
        (fun i ->
          if not released.(i) then begin
            released.(i) <- true;
            ignore (Graph.release_ref g ids.(i))
          end)
        releases;
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if (not released.(u)) && not released.(v) then
            if before.(u).(v)
               && not (Graph.reachable g ids.(u) ids.(v))
            then ok := false
        done
      done;
      !ok)

(* Chain-cap saturation: with a cap of 1 only the first chain gets label
   coverage; queries into off-chain events must fall back to the BFS (a
   label miss), and every answer must stay correct either way. *)
let test_chain_cap_saturation () =
  let g = Graph.create ~max_chains:1 () in
  let a = Graph.create_event g in
  let b = Graph.create_event g in
  let c = Graph.create_event g in
  let d = Graph.create_event g in
  Graph.add_edge g a b;
  (* c->d needs a second chain: the cap leaves d unassigned *)
  Graph.add_edge g c d;
  Alcotest.(check int) "one chain" 1 (Graph.chain_count g);
  Alcotest.(check (option bool)) "on-chain pair answered" (Some true)
    (Graph.label_reachable g a b);
  Alcotest.(check (option bool)) "off-chain pair undecided" None
    (Graph.label_reachable g c d);
  let misses0 = Graph.label_miss_count g in
  Alcotest.(check bool) "fallback still correct" true (Graph.reachable g c d);
  Alcotest.(check bool) "fallback counted as miss" true
    (Graph.label_miss_count g > misses0);
  Alcotest.(check bool) "negative fallback correct" false
    (Graph.reachable g d c);
  (* a disabled index never claims anything and keeps no chains *)
  let g0 = Graph.create ~max_chains:0 () in
  let x = Graph.create_event g0 in
  let y = Graph.create_event g0 in
  Graph.add_edge g0 x y;
  Alcotest.(check int) "no chains" 0 (Graph.chain_count g0);
  Alcotest.(check bool) "bfs answers" true (Graph.reachable g0 x y);
  Alcotest.(check int) "no label hits" 0 (Graph.label_hit_count g0)

(* A label entry packs the chain id into 22 bits and the position into
   40.  The cap is capped at 2^22 chains; a chain that has appended 2^40
   members takes no more, and the next event stays off-chain (answered by
   the BFS) as if the cap were saturated.  A restored chain section
   reaches the top positions without 2^40 appends. *)
let test_packed_label_ranges () =
  ignore (Graph.create ~max_chains:(1 lsl 22) ());
  Alcotest.check_raises "2^22 + 1 chains"
    (Invalid_argument "Graph.create: max_chains above 2^22") (fun () ->
      ignore (Graph.create ~max_chains:((1 lsl 22) + 1) ()));
  let g = Graph.create () in
  let a = Graph.create_event g in
  let b = Graph.create_event g in
  Graph.add_edge g a b;
  let snap = Graph.to_snapshot g in
  let cs = snap.Graph.snap_chains in
  let top = 1 lsl 40 in
  let full =
    { snap with
      Graph.snap_chains =
        { cs with
          Graph.cs_chain_pos =
            Array.map (fun p -> p + top - 2) cs.Graph.cs_chain_pos;
          cs_chain_len = [| top |] } }
  in
  let g = Graph.of_snapshot full in
  Alcotest.(check (option bool)) "top positions pack" (Some true)
    (Graph.label_reachable g a b);
  Alcotest.(check (option bool)) "and answer negatively" (Some false)
    (Graph.label_reachable g b a);
  let c = Graph.create_event g in
  Graph.add_edge g b c;
  Alcotest.(check (option bool)) "position 2^40 stays off-chain" None
    (Graph.label_reachable g a c);
  Alcotest.(check bool) "the BFS answers it" true (Graph.reachable g a c);
  Alcotest.(check int) "still one chain" 1 (Graph.chain_count g)

let suites =
  [ ( "graph",
      [
        Alcotest.test_case "create/refcount" `Quick test_create_refcount;
        Alcotest.test_case "memory bytes across a doubling" `Quick
          test_memory_bytes_across_doubling;
        Alcotest.test_case "memory bytes match the heap" `Quick
          test_memory_bytes_match_heap;
        Alcotest.test_case "query relations" `Quick test_query_relations;
        Alcotest.test_case "stale query" `Quick test_stale_query;
        Alcotest.test_case "slot reuse generation" `Quick test_slot_reuse_generation;
        Alcotest.test_case "gc pinning (fig 4)" `Quick test_gc_pinning_figure4;
        Alcotest.test_case "gc waits for predecessor" `Quick test_gc_waits_for_predecessor;
        Alcotest.test_case "gc chain" `Quick test_gc_chain_linear;
        Alcotest.test_case "gc diamond" `Quick test_gc_diamond_partial;
        Alcotest.test_case "edge rollback" `Quick test_rollback;
        Alcotest.test_case "growth" `Quick test_growth;
        Alcotest.test_case "introspection" `Quick test_introspection;
        Alcotest.test_case "visited accounting" `Quick test_visited_accounting;
        Alcotest.test_case "chain cap saturation" `Quick test_chain_cap_saturation;
        Alcotest.test_case "packed label ranges" `Quick test_packed_label_ranges;
        Alcotest.test_case "label rebuild fallback" `Quick
          test_label_rebuild_fallback;
        QCheck_alcotest.to_alcotest prop_rank_index_differential;
        QCheck_alcotest.to_alcotest prop_label_saturated_differential;
        QCheck_alcotest.to_alcotest prop_label_disabled_differential;
        QCheck_alcotest.to_alcotest prop_matches_closure;
        QCheck_alcotest.to_alcotest prop_gc_preserves_order;
      ] );
  ]
