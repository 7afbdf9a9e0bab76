(* Engine.View: frozen views must be indistinguishable from the live
   engine at the same epoch, deeply immutable afterwards, and safe to
   query from many domains at once (DESIGN.md §14).  The [view_race]
   suite is also the target of [make race-smoke]. *)

open Kronos
module View = Engine.View

let relation = Alcotest.testable Order.pp_relation ( = )

(* With no chain labels, the rank-windowed BFS decides every pair that
   rank does not refute, live and frozen alike: the configuration that
   runs the differential suites below a second time. *)
let labels_off = { Engine.default_config with Engine.max_chains = 0 }

(* Pull every pairwise relation out of a view. *)
let all_relations view ids =
  let n = Array.length ids in
  let out = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then
        match View.query view ids.(u) ids.(v) with
        | Ok r -> out := ((u, v), r) :: !out
        | Error _ -> ()
    done
  done;
  List.rev !out

let test_frozen_matches_live config () =
  let t = Engine.create ~config () in
  let ids = Array.init 6 (fun _ -> Engine.create_event t) in
  let ok =
    Engine.assign_order t
      [
        Order.must_before ids.(0) ids.(1);
        Order.must_before ids.(1) ids.(2);
        Order.prefer_before ids.(3) ids.(4);
      ]
  in
  (match ok with Ok _ -> () | Error _ -> Alcotest.fail "assign failed");
  let live = Engine.current_view t in
  let frozen = Engine.publish t in
  Alcotest.(check int64) "same epoch" (View.epoch live) (View.epoch frozen);
  Alcotest.(check (list (pair (pair int int) relation)))
    "same relations" (all_relations live ids) (all_relations frozen ids);
  Alcotest.(check int) "live_events" (View.live_events live)
    (View.live_events frozen);
  Alcotest.(check int) "edges" (View.edges live) (View.edges frozen)

let test_frozen_immutable_under_mutation () =
  let t = Engine.create () in
  let ids = Array.init 4 (fun _ -> Engine.create_event t) in
  ignore (Engine.assign_order t [ Order.must_before ids.(0) ids.(1) ]);
  let frozen = Engine.publish t in
  let before = all_relations frozen ids in
  let epoch0 = View.epoch frozen in
  (* Mutate heavily: new edges, new events (capacity growth), GC. *)
  ignore (Engine.assign_order t [ Order.must_before ids.(2) ids.(3) ]);
  for _ = 1 to 100 do
    ignore (Engine.create_event t)
  done;
  ignore (Engine.release_ref t ids.(0));
  Alcotest.(check (list (pair (pair int int) relation)))
    "frozen view unchanged" before (all_relations frozen ids);
  Alcotest.(check int64) "frozen epoch unchanged" epoch0 (View.epoch frozen);
  Alcotest.(check bool) "engine epoch advanced" true
    (Engine.epoch t > epoch0);
  (* The released event is gone from the live engine but still answers in
     the old view. *)
  Alcotest.(check bool) "old view still sees released event" true
    (View.is_live frozen ids.(0));
  Alcotest.(check bool) "new publish drops it" false
    (View.is_live (Engine.publish t) ids.(0))

let test_publish_cached_when_clean () =
  let t = Engine.create () in
  let a = Engine.create_event t and b = Engine.create_event t in
  ignore (Engine.assign_order t [ Order.must_before a b ]);
  let v1 = Engine.publish t in
  let v2 = Engine.publish t in
  Alcotest.(check int64) "no mutation, same epoch" (View.epoch v1)
    (View.epoch v2);
  (* Reads must not dirty the view: query then republish. *)
  ignore (View.query v2 a b);
  ignore (Engine.query_order t [ (a, b) ]);
  Alcotest.(check int64) "queries don't bump the epoch" (View.epoch v1)
    (Engine.epoch t)

let test_prover_on_frozen_view () =
  let t = Engine.create () in
  let ids = Array.init 5 (fun _ -> Engine.create_event t) in
  ignore
    (Engine.assign_order t
       [
         Order.must_before ids.(0) ids.(1);
         Order.must_before ids.(1) ids.(2);
         Order.must_before ids.(2) ids.(3);
       ]);
  let frozen = Engine.publish t in
  (* Mutate after publishing: the proof must still verify — it is built
     from the frozen commitment chains. *)
  ignore (Engine.assign_order t [ Order.must_before ids.(3) ids.(4) ]);
  match
    Kronos_certify.Prover.prove frozen ~source:ids.(0) ~target:ids.(3)
  with
  | None -> Alcotest.fail "no certificate from frozen view"
  | Some cert -> (
      match Kronos_certify.Verifier.verify cert with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("certificate failed: " ^ e))

(* Publication cost is O(dirty): after a full first publish of a
   100k-slot graph, one create and one must-edge dirty two slots in
   different blocks, so the next publish copies, per view field, a
   seven-entry root and two 128-entry blocks and chunks.  A flat copy of
   the per-slot fields would allocate ~9 words per slot (over 900 000
   words here). *)
let test_publish_allocates_o_dirty () =
  let t = Engine.create () in
  let first = Engine.create_event t in
  for _ = 2 to 100_000 do
    ignore (Engine.create_event t)
  done;
  ignore (Engine.publish t);
  let e = Engine.create_event t in
  (match Engine.assign_order t [ Order.must_before first e ] with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "assign failed");
  (* words allocated on either heap; promotions are not new allocations.
     [Gc.counters] rather than [Gc.quick_stat]: the latter's totals only
     catch up at collections, so a direct major allocation (a flat
     per-slot copy) could go unseen or an earlier one be billed here. *)
  let allocated () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = allocated () in
  let v = Engine.publish t in
  let words = allocated () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "publish allocated %.0f words (< 5000)" words)
    true (words < 5_000.);
  match View.query v first e with
  | Ok Order.Before -> ()
  | _ -> Alcotest.fail "new edge missing from the view"

(* Chunk-boundary differential: a graph spanning five chunks goes through
   slot reuse across a chunk boundary, an out-of-order must edge that
   relabels ranks in several chunks, and an aborted batch whose staged
   edges are popped ([Graph.abort]) — publishing after each step.  Every older
   view must keep answering exactly as it did when it was published (its
   chunks are shared with, never mutated by, later publishes), and the
   newest must match the live engine. *)
let test_chunk_boundaries config () =
  let t = Engine.create ~config () in
  let ids = Array.init 560 (fun _ -> Engine.create_event t) in
  let must pairs =
    match
      Engine.assign_order t
        (List.map (fun (u, v) -> Order.must_before ids.(u) ids.(v)) pairs)
    with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "assign failed"
  in
  (* chains crossing every chunk boundary, and one spanning chunks *)
  must
    [ (125, 126); (126, 129); (129, 130); (254, 255); (255, 256);
      (383, 384); (384, 385); (511, 512); (512, 513); (10, 200);
      (200, 300); (300, 400) ];
  let tracked = ref (Array.to_list ids) in
  let observe v sample =
    let facts =
      Array.map
        (fun id ->
          (View.is_live v id, View.rank v id, View.chain_length v id,
           View.commitment v id))
        sample
    in
    (all_relations v sample, facts)
  in
  let views = ref [] in
  let publish step =
    let v = Engine.publish t in
    let sample = Array.of_list !tracked in
    let recorded = observe v sample in
    List.iter
      (fun (old, old_step, old_sample, expected) ->
        if observe old old_sample <> expected then
          Alcotest.failf "view from step %s changed after step %s" old_step
            step)
      !views;
    if observe (Engine.current_view t) sample <> recorded then
      Alcotest.failf "view after step %s differs from the live engine" step;
    views := (v, step, sample, recorded) :: !views
  in
  publish "build";
  (* slots 127 and 128 straddle the chunk 0/1 boundary: collect both and
     let two new events reuse them, joined by an edge across the boundary *)
  List.iter (fun i -> ignore (Engine.release_ref t ids.(i))) [ 127; 128 ];
  let a = Engine.create_event t and b = Engine.create_event t in
  Alcotest.(check (list int)) "slots reused across the boundary" [ 128; 127 ]
    [ Event_id.slot a; Event_id.slot b ];
  ignore (Engine.assign_order t [ Order.must_before a b ]);
  tracked := a :: b :: !tracked;
  publish "reuse";
  (* 500 ranks above 10, so this edge relabels 10 -> 200 -> 300 -> 400 *)
  let g = Engine.graph t in
  let relabels = Graph.rank_relabel_count g in
  must [ (500, 10) ];
  Alcotest.(check bool) "rank relabel forced" true
    (Graph.rank_relabel_count g > relabels);
  publish "relabel";
  (* the second edge would close a cycle: the batch aborts and the first
     edge (itself a relabelling one) is rolled back *)
  let aborted = (Engine.stats t).Engine.aborted_batches in
  (match
     Engine.assign_order t
       [ Order.must_before ids.(540) ids.(20);
         Order.must_before ids.(20) ids.(540) ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "cyclic batch accepted");
  Alcotest.(check int) "batch rolled back" (aborted + 1)
    (Engine.stats t).Engine.aborted_batches;
  publish "rollback";
  must [ (130, 254); (513, 559) ];
  publish "extend"

(* An old view stays exact under later writes to its own slots.  Views
   share every per-slot value with the live graph by pointer (DESIGN.md
   §14), so each write below must install a new value rather than edit
   one the view holds: a second out-edge of a slot whose successors the
   view holds, edges staged on viewed slots and then aborted, a
   collection that removes an event from a predecessor array the view
   holds, and a freed slot on a chunk boundary taken by a new event.  The
   view's relations, ranks, chain lengths and commitments must not move,
   and the last view must match the live engine. *)
let test_old_view_own_slots config () =
  let t = Engine.create ~config () in
  let ids = Array.init 260 (fun _ -> Engine.create_event t) in
  let must pairs =
    match
      Engine.assign_order t
        (List.map (fun (u, v) -> Order.must_before ids.(u) ids.(v)) pairs)
    with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "assign failed"
  in
  must
    [ (10, 11); (20, 21); (30, 33); (31, 33); (32, 33); (33, 34);
      (126, 127); (127, 129) ];
  let observe v =
    ( all_relations v ids,
      Array.map
        (fun id ->
          (View.is_live v id, View.rank v id, View.chain_length v id,
           View.commitment v id))
        ids )
  in
  let old = Engine.publish t in
  let expected = observe old in
  let unchanged what =
    if observe old <> expected then Alcotest.failf "old view changed by %s" what
  in
  must [ (10, 12) ];
  unchanged "a second out-edge";
  (match
     Engine.assign_order t
       [ Order.must_before ids.(20) ids.(22); Order.must_before ids.(33) ids.(25);
         Order.must_before ids.(21) ids.(20) ]
   with
   | Error (Order.Must_violated 2) -> ()
   | _ -> Alcotest.fail "the cyclic batch must abort at its last must");
  unchanged "an aborted batch";
  if Engine.release_ref t ids.(30) <> Ok 1 then Alcotest.fail "30 not collected";
  unchanged "a collection";
  if Engine.release_ref t ids.(128) <> Ok 1 then
    Alcotest.fail "128 not collected";
  let fresh = Engine.create_event t in
  Alcotest.(check int) "slot 128 reused" 128 (Event_id.slot fresh);
  (match Engine.assign_order t [ Order.must_before ids.(127) fresh ] with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "assign to the new tenant failed");
  unchanged "slot reuse";
  Alcotest.(check bool) "the new tenant is not in the old view" false
    (View.is_live old fresh);
  let latest = Engine.publish t in
  if observe latest <> observe (Engine.current_view t) then
    Alcotest.fail "the latest view differs from the live engine"

(* Differential stress: a random op stream applied to one engine; frozen
   checkpoints taken along the way must answer exactly like a
   single-threaded reference at the matching epoch — verified from N
   reader domains running concurrently. *)

type op =
  | Create
  | Assign of int * int * bool  (* u, v, must? *)
  | Release of int

let gen_ops =
  let open QCheck2.Gen in
  let gen_op =
    frequency
      [
        (3, return Create);
        ( 6,
          map3 (fun u v m -> Assign (u, v, m)) (int_bound 30) (int_bound 30)
            bool );
        (2, map (fun u -> Release u) (int_bound 30));
      ]
  in
  list_size (int_range 10 40) gen_op

(* Apply one op; [ids] grows as Create executes. *)
let apply_op t ids op =
  match op with
  | Create -> ids := Engine.create_event t :: !ids
  | Assign (u, v, must) ->
      let a = Array.of_list !ids in
      let n = Array.length a in
      if n >= 2 then
        let x = a.(u mod n) and y = a.(v mod n) in
        let spec =
          if must then Order.must_before x y else Order.prefer_before x y
        in
        ignore (Engine.assign_order t [ spec ])
  | Release u ->
      let a = Array.of_list !ids in
      let n = Array.length a in
      if n > 0 then ignore (Engine.release_ref t a.(u mod n))

(* The first publish comes only after [k] steps, and with [restore] the
   engine is replaced halfway there by a restore of its own snapshot:
   nothing is tracked for a view before the first publish (it copies
   every slot), so the steps before it, restored or not, must still reach
   every later view. *)
let prop_domains_match_reference ~name config =
  let open QCheck2 in
  let gen =
    Gen.(
      gen_ops >>= fun ops ->
      map2 (fun k restore -> (k, restore, ops))
        (int_bound (List.length ops - 1)) bool)
  in
  Test.make ~name ~count:1000 gen (fun (k, restore, ops) ->
      let t = ref (Engine.create ~config ()) in
      let ids = ref [ Engine.create_event !t; Engine.create_event !t ] in
      (* Checkpoints: (frozen view, reference answers at that epoch). *)
      let checkpoints = ref [] in
      List.iteri
        (fun i op ->
          apply_op !t ids op;
          if restore && i = k / 2 then
            t := Engine.of_snapshot (Engine.to_snapshot !t);
          if i >= k && (i - k) mod 7 = 0 then begin
            let v = Engine.publish !t in
            let sample = Array.of_list !ids in
            let reference = all_relations (Engine.current_view !t) sample in
            checkpoints := (v, sample, reference) :: !checkpoints
          end)
        ops;
      let checkpoints = !checkpoints in
      (* Epochs along the stream must be monotonic (newest first here). *)
      let rec mono = function
        | (a, _, _) :: ((b, _, _) :: _ as rest) ->
            View.epoch a >= View.epoch b && mono rest
        | _ -> true
      in
      if not (mono checkpoints) then false
      else begin
        let readers =
          Array.init 2 (fun _ ->
              Domain.spawn (fun () ->
                  List.for_all
                    (fun (v, sample, reference) ->
                      all_relations v sample = reference)
                    checkpoints))
        in
        Array.for_all (fun d -> Domain.join d) readers
      end)

(* Race smoke: one writer domain mutating and publishing as fast as it
   can, several reader domains chasing the latest view through an atomic
   slot.  Stable facts (edges assigned before the first publish) in chunk
   0 and in later chunks must hold in every view ever observed, and the
   epochs each reader observes must never go backwards.  The writer forces
   rank relabels and reuses freed slots (some of them in chunk 0), so
   publishes keep copying chunks that readers are querying.

   The label cap is two chains, both taken by the first two facts, so the
   three facts assigned after them — a four-hop path across chunks 0 to
   2, a pair it does not connect, and a slot the writer's chain hangs off
   — need a third chain and drop the labels (DESIGN.md §15): every view
   has none, and only the frozen BFS can decide any fact.  The writer
   grows the graph from 300 to ~2 400 slots, so each reader's traversal
   scratch regrows several times mid-run, always under a view it is
   querying.

   Readers also prove and verify (DESIGN.md §13) on the views they read.
   Every fifth step the writer folds one more link into a hub event whose
   link store views share with the live graph, appending past their counts
   and regrowing the store under them.  Each reader proves a stable pair,
   an edge into the hub, and the same edge on the first view, and checks
   the certificates against that view's commitments; the first view's
   must stay the ones captured before the readers started. *)
let test_publish_race () =
  let t =
    Engine.create ~config:{ Engine.default_config with max_chains = 2 } ()
  in
  let ids = Array.init 300 (fun _ -> Engine.create_event t) in
  let must pairs =
    match
      Engine.assign_order t
        (List.map (fun (u, v) -> Order.must_before ids.(u) ids.(v)) pairs)
    with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "assign failed"
  in
  let chained = [ (0, 2); (200, 290) ] in
  must [ (0, 1); (1, 2); (200, 201); (201, 290) ];
  let unlabelled = [ (10, 280); (30, 299) ] in
  must [ (10, 100); (100, 150); (150, 250); (250, 280); (30, 40); (40, 299) ];
  let concurrent = (10, 40) in
  let hub = ids.(298) in
  must [ (297, 298) ];
  let first = Engine.publish t in
  let first_commits =
    List.map (fun e -> View.commitment first e) [ ids.(297); hub ]
  in
  List.iter
    (fun (a, b) ->
      if View.label_reachable first ids.(a) ids.(b) <> None then
        Alcotest.failf "labels decide (%d, %d): the BFS would not run" a b)
    ((concurrent :: chained) @ unlabelled);
  let slot = Atomic.make first in
  let stop = Atomic.make false in
  let readers =
    Array.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let last = ref 0L in
            let checks = ref 0 in
            let ok = ref true in
            while not (Atomic.get stop) do
              let v = Atomic.get slot in
              let e = View.epoch v in
              if e < !last then ok := false;
              last := e;
              List.iter
                (fun (a, b) ->
                  match View.query v ids.(a) ids.(b) with
                  | Ok Order.Before -> ()
                  | _ -> ok := false)
                (chained @ unlabelled);
              (let a, b = concurrent in
               match View.query v ids.(a) ids.(b) with
               | Ok Order.Concurrent -> ()
               | _ -> ok := false);
              let proves v a b =
                match
                  ( Kronos_certify.Prover.prove v ~source:a ~target:b,
                    View.commitment v a, View.commitment v b )
                with
                | Some cert, Some ca, Some cb ->
                  Kronos_certify.Verifier.verify_against cert
                    ~source_commit:ca ~target_commit:cb
                  = Ok ()
                | _ -> false
              in
              if not (proves v ids.(0) ids.(2) && proves v ids.(297) hub
                      && proves first ids.(297) hub
                      && List.map (fun e -> View.commitment first e)
                           [ ids.(297); hub ]
                         = first_commits)
              then ok := false;
              incr checks
            done;
            (!ok, !checks)))
  in
  (* Writer: keep growing and publishing.  Events 3..7 are isolated in
     chunk 0; releasing them hands their slots to later creates. *)
  let g = Engine.graph t in
  let relabels = Graph.rank_relabel_count g in
  let spare = ref [ 3; 4; 5; 6; 7 ] in
  let reused = ref 0 in
  let prev = ref ids.(299) in
  for i = 1 to 2_000 do
    let e = Engine.create_event t in
    if Event_id.slot e < 300 then incr reused;
    ignore (Engine.assign_order t [ Order.must_before !prev e ]);
    prev := e;
    if i mod 5 = 0 then
      ignore (Engine.assign_order t [ Order.must_before e hub ]);
    if i mod 10 = 0 then begin
      (* against creation order: [x] is relabelled above [y]; collecting
         [y] then frees its slot for the next create *)
      let x = Engine.create_event t in
      let y = Engine.create_event t in
      ignore (Engine.assign_order t [ Order.must_before y x ]);
      ignore (Engine.release_ref t y)
    end;
    (if i mod 50 = 0 then
       match !spare with
       | s :: rest ->
         ignore (Engine.release_ref t ids.(s));
         spare := rest
       | [] -> ());
    Atomic.set slot (Engine.publish t)
  done;
  Atomic.set stop true;
  Alcotest.(check bool) "writer relabelled ranks" true
    (Graph.rank_relabel_count g > relabels);
  Alcotest.(check int) "writer reused every chunk-0 slot" 5 !reused;
  Alcotest.(check bool) "graph outgrew the first view" true
    (Graph.capacity g > 4 * Array.length ids);
  Array.iter
    (fun d ->
      let ok, checks = Domain.join d in
      Alcotest.(check bool) "reader saw consistent views" true ok;
      Alcotest.(check bool) "reader made progress" true (checks > 0))
    readers

(* One domain's traversal scratch serves every view it queries.  Query a
   large view first, so the scratch grows to it and its marks cover slots
   the older view never had, then an older, smaller view: every answer
   must match the live engine at the older view's epoch.  Labels are off,
   so the BFS decides every pair. *)
let test_large_then_older_view () =
  let t = Engine.create ~config:labels_off () in
  let ids = Array.init 24 (fun _ -> Engine.create_event t) in
  List.iter
    (fun (u, v) ->
      ignore (Engine.assign_order t [ Order.must_before ids.(u) ids.(v) ]))
    [ (0, 5); (5, 9); (9, 17); (2, 9); (17, 23); (3, 4); (11, 12); (12, 23) ];
  let small = Engine.publish t in
  let reference = all_relations (Engine.current_view t) ids in
  let big = Array.init 5_000 (fun _ -> Engine.create_event t) in
  for i = 0 to Array.length big - 2 do
    ignore (Engine.assign_order t [ Order.must_before big.(i) big.(i + 1) ])
  done;
  ignore (Engine.assign_order t [ Order.must_before ids.(23) big.(0) ]);
  let large = Engine.publish t in
  let last = big.(Array.length big - 1) in
  let reader =
    Domain.spawn (fun () ->
        let long_path () = View.query large ids.(0) last = Ok Order.Before in
        let before = long_path () in
        let older = all_relations small ids in
        (before, older, long_path ()))
  in
  let before, older, after = Domain.join reader in
  Alcotest.(check bool) "large view first" true before;
  Alcotest.(check (list (pair (pair int int) relation)))
    "older view after the large one" reference older;
  Alcotest.(check bool) "large view again" true after

let suites =
  [
    ( "view",
      [
        Alcotest.test_case "frozen matches live" `Quick
          (test_frozen_matches_live Engine.default_config);
        Alcotest.test_case "labels off: frozen matches live" `Quick
          (test_frozen_matches_live labels_off);
        Alcotest.test_case "frozen immutable under mutation" `Quick
          test_frozen_immutable_under_mutation;
        Alcotest.test_case "publish cached when clean" `Quick
          test_publish_cached_when_clean;
        Alcotest.test_case "prover on frozen view" `Quick
          test_prover_on_frozen_view;
        Alcotest.test_case "publish allocates O(dirty)" `Quick
          test_publish_allocates_o_dirty;
        Alcotest.test_case "chunk boundaries" `Quick
          (test_chunk_boundaries Engine.default_config);
        Alcotest.test_case "labels off: chunk boundaries" `Quick
          (test_chunk_boundaries labels_off);
        Alcotest.test_case "old view exact under writes to its slots" `Quick
          (test_old_view_own_slots Engine.default_config);
        Alcotest.test_case "labels off: old view exact under writes" `Quick
          (test_old_view_own_slots labels_off);
        Alcotest.test_case "large view then an older one" `Quick
          test_large_then_older_view;
        QCheck_alcotest.to_alcotest
          (prop_domains_match_reference
             ~name:"reader domains match single-threaded reference at epoch"
             Engine.default_config);
        QCheck_alcotest.to_alcotest
          (prop_domains_match_reference
             ~name:"labels off: reader domains match reference at epoch"
             labels_off);
      ] );
    ("view_race", [ Alcotest.test_case "publish race" `Quick test_publish_race ]);
  ]
