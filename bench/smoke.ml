(* Smoke benchmark: a seconds-fast performance snapshot written to
   BENCH_smoke.json (override the path with KRONOS_SMOKE_OUT), so CI can
   track coarse regressions without running the full figure harness.

   Three families of numbers:
   - in-process engine hot paths (ns/op via Bechamel or best-of-N
     windows, the words an edge promotes to the major heap, and exact
     counts of search work);
   - the certify subsystem: proof generation/verification ns/op and the
     digest-maintenance overhead on the assign path (DESIGN.md §13);
   - bounded-time recovery of a durable replica (DESIGN.md §16).
   The replicated service end to end is measured by perfbench/, over
   real TCP. *)

open Kronos
module Server = Kronos_service.Server
module M = Kronos_metrics

let results : (string * float * string) list ref = ref []
let record name value unit_ = results := (name, value, unit_) :: !results

(* Best of five fixed-length windows of [ops] calls, in ns per call;
   [before] runs untimed ahead of each window. *)
let best_window_ns ?(before = ignore) ~ops f =
  let best = ref infinity in
  for _ = 1 to 5 do
    before ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to ops do f () done;
    let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int ops in
    best := Float.min !best ns
  done;
  !best

(* [best_window_ns] from a compacted heap, so a series pays for its own
   garbage and not for what the benches before it left. *)
let compacted_window_ns ~ops f =
  Gc.compact ();
  best_window_ns ~ops f

(* Engine hot paths on small graphs, where labels decide every query
   (DESIGN.md §15).  Each is timed as the best of five fixed-length
   windows, which on these sub-microsecond paths holds steadier from run
   to run than Bechamel's 0.25 s quotas did.  The queries run after a
   compaction.  [engine.assign_fresh] is bound by allocation, and each of
   its windows starts a fresh engine after a full major collection
   instead: over one growing engine each window paid the collector for a
   different heap, and after a compaction it paid page faults for the
   memory the compaction returned; either way one process read about
   twice what the next did. *)

(* The dense DAG of [engine.assign_must_dense]: 256 events and 4 x 256
   seeded Musts, each from a lower to a higher index, so every one rises
   in rank.  Returns the generator too, for the caller to draw on. *)
let dense_dag () =
  let engine = Engine.create () in
  let m = 256 in
  let dense = Array.init m (fun _ -> Engine.create_event engine) in
  let rng = Kronos_simnet.Rng.create ~seed:23L in
  for _ = 1 to 4 * m do
    let i = Kronos_simnet.Rng.int rng (m - 1) in
    let j = i + 1 + Kronos_simnet.Rng.int rng (m - i - 1) in
    ignore (Engine.assign_order engine [ Order.must_before dense.(i) dense.(j) ])
  done;
  (engine, dense, rng)

let engine_hot_paths () =
  let engine = ref (Engine.create ()) in
  let assign_ns =
    best_window_ns ~ops:10_000
      ~before:(fun () ->
        engine := Engine.create ();
        Gc.full_major ())
      (fun () ->
        let a = Engine.create_event !engine in
        let b = Engine.create_event !engine in
        ignore (Engine.assign_order !engine [ Order.must_before a b ]))
  in
  record "engine.assign_fresh" assign_ns "ns/op";
  (* a long chain makes the query a real traversal *)
  let engine = Engine.create () in
  let n = 2_000 in
  let ids = Array.init n (fun _ -> Engine.create_event engine) in
  for i = 0 to n - 2 do
    ignore (Engine.assign_order engine [ Order.must_before ids.(i) ids.(i + 1) ])
  done;
  let rng = Kronos_simnet.Rng.create ~seed:7L in
  let query_ns =
    compacted_window_ns ~ops:100_000 (fun () ->
        let u = Kronos_simnet.Rng.int rng n and v = Kronos_simnet.Rng.int rng n in
        ignore (Engine.query_order engine [ (ids.(u), ids.(v)) ]))
  in
  record "engine.query_chain" query_ns "ns/op";
  (* ordered pairs on the same chain: the pure label-hit path — one
     chain-label compare decides [Before], no BFS at any distance
     (DESIGN.md §15) *)
  let rng = Kronos_simnet.Rng.create ~seed:9L in
  let label_hit_ns =
    compacted_window_ns ~ops:100_000 (fun () ->
        let u = Kronos_simnet.Rng.int rng (n - 1) in
        let v = u + 1 + Kronos_simnet.Rng.int rng (n - u - 1) in
        ignore (Engine.query_order engine [ (ids.(u), ids.(v)) ]))
  in
  record "engine.query_chain_label_hit" label_hit_ns "ns/op";
  (* share of reachability probes the label index answered over the two
     query benches above; 1.0 means the BFS never ran *)
  let hits = float_of_int (Engine.label_hits engine)
  and misses = float_of_int (Engine.label_misses engine) in
  record "engine.label_hit_rate"
    (if hits +. misses > 0. then hits /. (hits +. misses) else 0.)
    "x";
  (* two unrelated chains: every cross-chain pair is Concurrent, the worst
     case for the query path (historically two full BFS traversals) *)
  let engine = Engine.create () in
  let chain len = Array.init len (fun _ -> Engine.create_event engine) in
  let c1 = chain n and c2 = chain n in
  Array.iter
    (fun c ->
      for i = 0 to n - 2 do
        ignore (Engine.assign_order engine [ Order.must_before c.(i) c.(i + 1) ])
      done)
    [| c1; c2 |];
  let rng = Kronos_simnet.Rng.create ~seed:13L in
  let concurrent_ns =
    compacted_window_ns ~ops:100_000 (fun () ->
        let u = Kronos_simnet.Rng.int rng n and v = Kronos_simnet.Rng.int rng n in
        ignore (Engine.query_order engine [ (c1.(u), c2.(v)) ]))
  in
  record "engine.query_concurrent" concurrent_ns "ns/op";
  (* must-edge batches into a dense DAG: each assign pays the engine's
     cycle/implication checks against a graph with many paths *)
  let engine, dense, rng = dense_dag () in
  let m = Array.length dense in
  let must_dense_ns =
    compacted_window_ns ~ops:20_000 (fun () ->
        let i = Kronos_simnet.Rng.int rng (m - 1) in
        let j = i + 1 + Kronos_simnet.Rng.int rng (m - i - 1) in
        ignore (Engine.assign_order engine [ Order.must_before dense.(i) dense.(j) ]))
  in
  record "engine.assign_must_dense" must_dense_ns "ns/op"

(* Client order cache (DESIGN.md §17) under the chain-shaped stream that
   session clients produce: 64 session chains fed round-robin into a full
   65 536-entry cache at the default pre-fill fanout, so every timed
   insert pays its pre-fills and the evictions they force.
   [client.order_cache_find_hit] times a lookup of a resident pair (a
   hit, which also refreshes recency).  Both are timed as the best of five
   fixed-length windows rather than by Bechamel, whose own allocation
   drives major-GC slices over the cache's multi-megabyte heap and would
   bill them to the operation. *)
let order_cache_smoke () =
  let sessions = 64 and capacity = 65_536 in
  let cache = Order_cache.create ~capacity () in
  let next_slot = ref 0 in
  let fresh () =
    let e = Event_id.make ~slot:!next_slot ~gen:0 in
    incr next_slot;
    e
  in
  let tips = Array.init sessions (fun _ -> fresh ()) in
  let turn = ref 0 in
  let step () =
    let s = !turn in
    turn := (s + 1) mod sessions;
    let e = fresh () in
    Order_cache.insert cache tips.(s) e Order.Before;
    tips.(s) <- e
  in
  (* run past the first eviction, so timing starts in the steady state *)
  while Order_cache.evictions cache = 0 do step () done;
  for _ = 1 to 4 * sessions do step () done;
  let insert_ns = best_window_ns ~ops:2_000 step in
  record "client.order_cache_insert_chain" insert_ns "ns/op";
  (* the newest edge of every session is resident *)
  let pairs =
    Array.init sessions (fun _ ->
        let s = !turn in
        let before = tips.(s) in
        step ();
        (before, tips.(s)))
  in
  let misses = Order_cache.misses cache in
  let k = ref 0 in
  let find_ns =
    best_window_ns ~ops:200_000 (fun () ->
        let a, b = pairs.(!k) in
        k := (!k + 1) mod sessions;
        ignore (Order_cache.find cache a b))
  in
  if Order_cache.misses cache <> misses then
    failwith "order_cache_smoke: a resident pair missed";
  record "client.order_cache_find_hit" find_ns "ns/op"

(* Multicore query plane (DESIGN.md §14): the worst-case concurrent
   workload of [engine.query_concurrent], answered from a frozen
   {!Engine.View} by every available domain at once.  Three series:
   - [engine.query_frozen_1]: single-domain ns/op over the frozen view —
     the publication-path sanity check (should track
     [engine.query_concurrent], minus cache/counter upkeep);
   - [engine.query_parallel]: aggregate ops/s with
     [Domain.recommended_domain_count] reader domains;
   - [engine.query_parallel_speedup]: that rate divided by the measured
     single-domain *live* rate — the number the multicore work exists
     for.  [check] holds it above a hard 2x floor, but only on machines
     with at least 4 recommended domains; on smaller hosts the series is
     still recorded and baseline-gated like everything else.
   The frozen rates are the best of [parallel_windows] windows of a fixed
   query count.  The reader domains are spawned once, outside every
   window, and start each window together at a barrier; the calling
   domain is one of them and times the window from the barrier's release
   to the last reader's finish. *)
let parallel_windows = 7

let query_parallel_smoke () =
  let engine = Engine.create () in
  let n = 2_000 in
  let chain len = Array.init len (fun _ -> Engine.create_event engine) in
  let c1 = chain n and c2 = chain n in
  Array.iter
    (fun c ->
      for i = 0 to n - 2 do
        ignore (Engine.assign_order engine [ Order.must_before c.(i) c.(i + 1) ])
      done)
    [| c1; c2 |];
  let rng = Kronos_simnet.Rng.create ~seed:13L in
  let live_ns =
    Bench_util.bechamel_ns_per_op ~quota:0.25 ~name:"smoke/parallel_base"
      (fun () ->
        let u = Kronos_simnet.Rng.int rng n and v = Kronos_simnet.Rng.int rng n in
        ignore (Engine.query_order engine [ (c1.(u), c2.(v)) ]))
  in
  let view = Engine.publish engine in
  let domains = max 1 (Domain.recommended_domain_count ()) in
  let total = if !Bench_util.full_scale then 400_000 else 120_000 in
  let run_with d =
    let per = total / d in
    let reader k =
      let rng = Kronos_simnet.Rng.create ~seed:(Int64.of_int (100 + k)) in
      fun () ->
        for _ = 1 to per do
          let u = Kronos_simnet.Rng.int rng n
          and v = Kronos_simnet.Rng.int rng n in
          ignore (Engine.View.query view c1.(u) c2.(v))
        done
    in
    (* window [w] opens when [round] reaches [w]; [arrived] and
       [finished] count the spawned readers' barrier arrivals and
       finished windows over the whole run *)
    let round = Atomic.make 0 in
    let arrived = Atomic.make 0 and finished = Atomic.make 0 in
    let rec await cond = if not (cond ()) then (Domain.cpu_relax (); await cond) in
    let spawned =
      Array.init (d - 1) (fun k ->
          let run = reader (k + 1) in
          Domain.spawn (fun () ->
              for w = 1 to parallel_windows do
                Atomic.incr arrived;
                await (fun () -> Atomic.get round >= w);
                run ();
                Atomic.incr finished
              done))
    in
    let run = reader 0 in
    let best = ref 0. in
    for w = 1 to parallel_windows do
      await (fun () -> Atomic.get arrived >= (d - 1) * w);
      let t0 = Unix.gettimeofday () in
      Atomic.set round w;
      run ();
      await (fun () -> Atomic.get finished >= (d - 1) * w);
      let rate = float_of_int (per * d) /. (Unix.gettimeofday () -. t0) in
      best := Float.max !best rate
    done;
    Array.iter Domain.join spawned;
    !best
  in
  let rate1 = run_with 1 in
  let rate_all = run_with domains in
  record "engine.query_frozen_1" (1e9 /. rate1) "ns/op";
  record "engine.query_parallel" rate_all "ops/s";
  record "engine.query_parallel_speedup" (rate_all *. live_ns /. 1e9) "x"

(* View publication (DESIGN.md §14) over graphs of 10k and 100k events:
   ns per step, where a step admits one must edge between consecutive
   events (the chain-append shape of session writes, dirtying two slots)
   and then publishes.  A publish copies each field's small root and the
   blocks and chunks holding dirty slots, so the two series should be
   flat in graph size.  Timed like [client.order_cache_*], as the best of five
   fixed-length windows after a compaction: Bechamel's own allocation
   would bill major-GC slices over the multi-megabyte graph to the
   operation. *)
let publish_smoke () =
  List.iter
    (fun (n, name) ->
      let engine = Engine.create () in
      let ids = Array.init n (fun _ -> Engine.create_event engine) in
      ignore (Engine.publish engine);
      let next = ref 0 in
      let step () =
        let i = !next in
        next := i + 1;
        ignore
          (Engine.assign_order engine
             [ Order.must_before ids.(i) ids.(i + 1) ]);
        ignore (Engine.publish engine)
      in
      record name (compacted_window_ns ~ops:1_000 step) "ns/op")
    [
      (10_000, "engine.publish_one_write_10k");
      (100_000, "engine.publish_one_write_100k");
    ]

(* Fig 8's graph: G(10k,50k) with every edge oriented low -> high, queried
   with uniform pairs.  The 64-chain label cap saturates on it within the
   first ~65 edges, so the labels are dropped and every query the ranks
   do not refute runs the rank-windowed bidirectional BFS — the only
   smoke series whose answers the BFS decides (the two-chain series above
   are answered by labels).  Three series over the same 10 000 pre-drawn
   pairs:
   - [engine.bfs_visited_wide]: slots the BFS visits over one pass of the
     pairs, an exact work count that host load does not move (gated at
     1.1x);
   - [engine.query_wide]: [Engine.query_order] on the live engine;
   - [engine.query_frozen_wide]: [Engine.View.query] over a published
     view, on this domain's traversal scratch.
   The two times are the best of five fixed-length windows after a
   compaction. *)
let query_wide_smoke () =
  let module Graph_gen = Kronos_workload.Graph_gen in
  let n = 10_000 in
  let graph =
    Graph_gen.erdos_renyi_gnm ~rng:(Kronos_simnet.Rng.create ~seed:77L) ~n
      ~m:50_000
  in
  let engine = Engine.create () in
  let ids = Array.init n (fun _ -> Engine.create_event engine) in
  let g = Engine.graph engine in
  Array.iter (fun (u, v) -> Graph.add_edge g ids.(u) ids.(v)) graph.edges;
  let view = Engine.publish engine in
  let rng = Kronos_simnet.Rng.create ~seed:123L in
  let ops = 10_000 in
  let pairs =
    Array.init ops (fun _ ->
        (ids.(Kronos_simnet.Rng.int rng n), ids.(Kronos_simnet.Rng.int rng n)))
  in
  let visited0 = (Engine.stats engine).Engine.visited in
  Array.iter (fun p -> ignore (Engine.query_order engine [ p ])) pairs;
  record "engine.bfs_visited_wide"
    (float_of_int ((Engine.stats engine).Engine.visited - visited0))
    "slots";
  let timed query =
    let k = ref 0 in
    compacted_window_ns ~ops (fun () ->
        let a, b = pairs.(!k) in
        k := (!k + 1) mod ops;
        query a b)
  in
  record "engine.query_wide"
    (timed (fun a b -> ignore (Engine.query_order engine [ (a, b) ])))
    "ns/op";
  record "engine.query_frozen_wide"
    (timed (fun a b -> ignore (Engine.View.query view a b)))
    "ns/op"

(* The same G(10k,50k), low -> high, built the way read_wide preloads it:
   into a fresh engine in 1000-edge Must batches.  Every Must rises in
   rank, so no batch aborts: each is staged whole and sealed once
   (DESIGN.md §15).
   Returns a builder of fresh engines under [config] (a fresh engine mints
   the same ids every time, so the batches apply to any of them), and the
   edge count. *)
let wide_batches () =
  let module Graph_gen = Kronos_workload.Graph_gen in
  let n = 10_000 and batch = 1_000 in
  let graph =
    Graph_gen.erdos_renyi_gnm ~rng:(Kronos_simnet.Rng.create ~seed:77L) ~n
      ~m:50_000
  in
  let edges = Array.map (fun (u, v) -> (min u v, max u v)) graph.edges in
  let m = Array.length edges in
  let fresh config =
    let engine = Engine.create ~config () in
    (engine, Array.init n (fun _ -> Engine.create_event engine))
  in
  let _, ids = fresh Engine.default_config in
  let batches =
    List.init ((m + batch - 1) / batch) (fun b ->
        List.init
          (min batch (m - (b * batch)))
          (fun k ->
            let u, v = edges.((b * batch) + k) in
            Order.must_before ids.(u) ids.(v)))
  in
  let build engine =
    List.iter
      (fun specs ->
        match Engine.assign_order engine specs with
        | Ok _ -> ()
        | Error _ -> failwith "smoke: a rising Must batch aborted")
      batches
  in
  (fresh, build, m)

(* Two series over [wide_batches] into default engines (labels and
   digests on):
   - [engine.assign_batch_wide]: ns per edge, the best of five builds,
     each on a fresh engine after a compaction;
   - [engine.assign_batch_wide_promoted]: words promoted from the minor to
     the major heap per edge over one build: the label arrays and staged
     adjacency an edge leaves alive across a minor collection, beside its
     commitment link.  A fresh engine and an empty minor heap make it
     repeat exactly from build to build (the minimum is kept all the
     same); it moves slightly with the minor heap size and with what the
     process allocated before. *)
let assign_batch_wide_smoke () =
  let fresh, build, m = wide_batches () in
  let best_ns = ref infinity and promoted = ref infinity in
  for _ = 1 to 5 do
    let engine, _ = fresh Engine.default_config in
    Gc.compact ();
    let p0 = (Gc.quick_stat ()).Gc.promoted_words in
    let t0 = Unix.gettimeofday () in
    build engine;
    let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int m in
    let words = (Gc.quick_stat ()).Gc.promoted_words -. p0 in
    best_ns := Float.min !best_ns ns;
    promoted := Float.min !promoted (words /. float_of_int m)
  done;
  record "engine.assign_batch_wide" !best_ns "ns/edge";
  record "engine.assign_batch_wide_promoted" !promoted "words/edge"

(* [engine.commitment_bytes_per_link]: heap bytes the commitment chains
   (DESIGN.md §13) hold per admitted edge after the [wide_batches] build.
   Live words after a compaction are exact, so the series is the live-word
   growth of a build with digests on minus that of one with digests off,
   per edge: everything else the two engines hold is the same. *)
let commitment_bytes_smoke () =
  let fresh, build, m = wide_batches () in
  let growth digests =
    Gc.compact ();
    let w0 = (Gc.stat ()).Gc.live_words in
    let engine, _ = fresh { Engine.default_config with digests } in
    build engine;
    Gc.compact ();
    let w = (Gc.stat ()).Gc.live_words - w0 in
    ignore (Sys.opaque_identity engine);
    w
  in
  let words = growth true - growth false in
  record "engine.commitment_bytes_per_link"
    (float_of_int (words * (Sys.word_size / 8)) /. float_of_int m)
    "B/link"

(* [engine.digest_folds_per_edge]: SHA-256 compressions the commitment
   chains (DESIGN.md §13) spend per committed edge, over a fixed seeded
   mix of 1-4 Must batches into 512 events: a quarter of the Musts fall
   in rank (some relabel, some close a cycle), and a quarter of the
   batches end with a Must that reverses their first one, so they abort
   after staging edges.  A committed edge folds one link, two
   compressions; an aborted one should fold none.  An exact count, so it
   takes the tight [count_threshold]. *)
let digest_folds_smoke () =
  let module Rng = Kronos_simnet.Rng in
  let engine = Engine.create () in
  let g = Engine.graph engine in
  let n = 512 in
  let ids = Array.init n (fun _ -> Engine.create_event engine) in
  let rng = Rng.create ~seed:31L in
  let folds0 = Graph.digest_fold_count g and edges0 = Engine.edges engine in
  for _ = 1 to 2_000 do
    let must () =
      let i = Rng.int rng (n - 1) in
      let j = i + 1 + Rng.int rng (n - i - 1) in
      if Rng.int rng 4 = 0 then (j, i) else (i, j)
    in
    let pairs = List.init (1 + Rng.int rng 4) (fun _ -> must ()) in
    let pairs =
      if Rng.int rng 4 = 0 then pairs @ [ (fun (u, v) -> (v, u)) (List.hd pairs) ]
      else pairs
    in
    ignore
      (Engine.assign_order engine
         (List.map (fun (u, v) -> Order.must_before ids.(u) ids.(v)) pairs))
  done;
  record "engine.digest_folds_per_edge"
    (float_of_int (Graph.digest_fold_count g - folds0)
    /. float_of_int (Engine.edges engine - edges0))
    "compressions/edge"

(* [engine.bfs_visited_reversed_must]: slots the search visits over a
   fixed seeded stream of 2 000 one-Must batches [dense.(j) -> dense.(i)],
   [i < j], into [dense_dag]'s graph.  Each is drawn against creation
   order, so unless an earlier relabel already lifted [dense.(i)] above
   [dense.(j)], it pays [Graph.stage]'s cycle check: the query search
   over the open window (rank dense.(i), rank dense.(j)).  A Must whose
   search finds the path is refused ([Must_violated]); one whose search
   does not is applied and relabels.  The rising Musts of
   [engine.assign_must_dense] never reach that check.  An exact count, so
   it takes the tight [count_threshold]. *)
let reversed_must_smoke () =
  let module Rng = Kronos_simnet.Rng in
  let engine, dense, _ = dense_dag () in
  let m = Array.length dense in
  let rng = Rng.create ~seed:29L in
  let visited0 = (Engine.stats engine).Engine.visited in
  for _ = 1 to 2_000 do
    let i = Rng.int rng (m - 1) in
    let j = i + 1 + Rng.int rng (m - i - 1) in
    ignore (Engine.assign_order engine [ Order.must_before dense.(j) dense.(i) ])
  done;
  record "engine.bfs_visited_reversed_must"
    (float_of_int ((Engine.stats engine).Engine.visited - visited0))
    "slots"

(* Certify hot paths (DESIGN.md §13): proof generation and verification
   over a real chain, each the best of five fixed-length windows after a
   compaction, plus the assign-path cost of digest maintenance —
   the fresh-assign workload of [engine.assign_fresh] with commitment
   chains on and off, and the relative overhead as a percentage.  Every
   fresh edge folds one link — two SHA-256 compressions — so the pct
   series measures a deterministic per-edge cost; [check] holds it under
   [assign_overhead_budget_pct] rather than ratio-gating it against the
   baseline (a relative gate on a difference of two noisy numbers fires
   on noise, a budget fires on extra folds). *)
let certify_smoke () =
  let engine = Engine.create () in
  let n = 512 in
  let ids = Array.init n (fun _ -> Engine.create_event engine) in
  for i = 0 to n - 2 do
    ignore (Engine.assign_order engine [ Order.must_before ids.(i) ids.(i + 1) ])
  done;
  let g = Engine.current_view engine in
  let module Prover = Kronos_certify.Prover in
  let module Verifier = Kronos_certify.Verifier in
  let rng = Kronos_simnet.Rng.create ~seed:41L in
  let prove_ns =
    compacted_window_ns ~ops:10_000 (fun () ->
        let i = Kronos_simnet.Rng.int rng (n - 64) in
        let j = i + 1 + Kronos_simnet.Rng.int rng 63 in
        ignore (Prover.prove g ~source:ids.(i) ~target:ids.(j)))
  in
  record "certify.prove" prove_ns "ns/op";
  (* [certify.prove_hub]: a proof into a hub event with 128 links, through
     its oldest, middle and newest link in turn.  A step that opens link
     [i] refolds the hub's head before it, two compressions per link
     below [i] (DESIGN.md §13), which the one-link chain above never
     pays. *)
  let hub_engine = Engine.create () in
  let preds = Array.init 128 (fun _ -> Engine.create_event hub_engine) in
  let hub = Engine.create_event hub_engine in
  Array.iter
    (fun p ->
      ignore (Engine.assign_order hub_engine [ Order.must_before p hub ]))
    preds;
  let hub_view = Engine.current_view hub_engine in
  let sources = [| preds.(0); preds.(64); preds.(127) |] in
  let k = ref 0 in
  let prove_hub_ns =
    compacted_window_ns ~ops:3_000 (fun () ->
        let source = sources.(!k) in
        k := (!k + 1) mod 3;
        if Prover.prove hub_view ~source ~target:hub = None then
          failwith "smoke: a hub link must be provable")
  in
  record "certify.prove_hub" prove_hub_ns "ns/op";
  let cert =
    match Prover.prove g ~source:ids.(0) ~target:ids.(n - 1) with
    | Some c -> c
    | None -> failwith "smoke: chain path must be provable"
  in
  let verify_ns =
    compacted_window_ns ~ops:100 (fun () ->
        match Verifier.verify cert with
        | Ok () -> ()
        | Error m -> failwith ("smoke: " ^ m))
  in
  record "certify.verify" verify_ns "ns/op";
  (* digest-maintenance overhead on the fresh-assign path: every benched
     edge is brand new, so it deterministically pays its link folds.  (An
     older variant measured the dense-DAG workload instead, where most
     batch edges are already implied and fold nothing: the pct came out
     as a small difference between two mostly-identical noisy numbers,
     and once the chain-label index collapsed the base cost it swung by
     over 100 points between runs.) *)
  let assign_ns ~digests =
    let engine =
      Engine.create ~config:{ Engine.default_config with digests } ()
    in
    Bench_util.bechamel_ns_per_op ~quota:0.25 ~name:"smoke/assign_digest"
      (fun () ->
        let a = Engine.create_event engine in
        let b = Engine.create_event engine in
        ignore (Engine.assign_order engine [ Order.must_before a b ]))
  in
  (* Interleave three windows per mode and keep the minimum: a single
     0.25 s window inherits whatever GC state the preceding benches left
     behind and was observed swinging by 1.8x between runs, which a ratio
     of two such numbers amplifies into >100-point pct jumps.  The
     per-mode minimum is the noise-floor estimate, and interleaving keeps
     slow drift (the benched engines grow as they run) from biasing one
     mode. *)
  let off = ref infinity and on = ref infinity in
  for _ = 1 to 3 do
    off := Float.min !off (assign_ns ~digests:false);
    on := Float.min !on (assign_ns ~digests:true)
  done;
  let off = !off and on = !on in
  record "certify.assign_digests_off" off "ns/op";
  record "certify.assign_digests_on" on "ns/op";
  record "certify.assign_overhead_pct" (100. *. (on -. off) /. off) "pct"

(* Documented budget (DESIGN.md §13) for [certify.assign_overhead_pct].
   It must hold on either SHA-256 path, so it is set by the slower one:
   in portable OCaml the two compressions a fresh edge folds cost ~2.7 µs,
   roughly tripling a fresh-assign path that the chain-label index has
   collapsed to ~1 µs (~200-300 pct).  With the SHA-NI stub the folds
   cost ~0.2 µs and the series reads well under 100.  [check] holds it
   under this ceiling — generous against scheduler noise on the
   noise-floor estimate above, but on the portable path an extra fold
   sneaking onto the assign path (3 compressions ≈ +100 further points)
   still fails. *)
let assign_overhead_budget_pct = 250.

(* Documented budget (DESIGN.md §16) for [durability.recovery_ms]: the
   snapshot schedule bounds the WAL tail a restart replays to one window,
   so cold recovery time is independent of history length.  One window of
   single-chain commands replays in well under a second on any recent
   machine; 2000 ms leaves generous slack for loaded CI runners while
   still failing if recovery ever degrades to replaying history
   proportional to its length. *)
let recovery_ms_budget = 2_000.

(* Bounded-time recovery (DESIGN.md §16): build a single-chain history of
   [events] events through the wire codec into a WAL plus snapshots,
   group-committing every 32 commands through the snapshot schedule the
   server runs ([Schedule.commit]: a full snapshot per WAL window, segments
   retired and the directory compacted as it goes) — then measure a cold
   [Recovery.run] over the result.  The replayed tail is bounded by one
   window no matter how long the history grew (that is the point of the
   subsystem), so [durability.recovery_ms] is held under an absolute
   budget in [check] rather than ratio-gated against a baseline.
   [durability.recovery_rss_mb] is the growth of the resident set across
   [Recovery.run] alone, from a compacted heap (Linux /proc/self/statm;
   skipped elsewhere).  The series runs first in [run] and [check], so
   the heap it grows from holds only the history it built, not whatever
   the other series left behind. *)
let resident_mb () =
  match
    let ic = open_in "/proc/self/statm" in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
  with
  | exception (Sys_error _ | End_of_file) -> None
  | statm -> (
    match String.split_on_char ' ' (String.trim statm) with
    | _ :: resident :: _ ->
      Option.map
        (fun pages -> float_of_int pages *. 4096. /. 1e6)
        (int_of_string_opt resident)
    | _ -> None)

let durability_recovery_smoke () =
  let module Storage = Kronos_durability.Storage in
  let module Wal = Kronos_durability.Wal in
  let module Schedule = Kronos_durability.Schedule in
  let module Recovery = Kronos_durability.Recovery in
  let module Message = Kronos_wire.Message in
  let events = if !Bench_util.full_scale then 1_000_000 else 30_000 in
  let window = if !Bench_util.full_scale then 4 * 1024 * 1024 else 128 * 1024 in
  let wal_config = { Wal.segment_bytes = 1 lsl 20; sync = Wal.Always } in
  let storage = Storage.Memory.storage (Storage.Memory.create ()) in
  let wal, _ = Wal.open_ ~config:wal_config storage in
  let schedule = Schedule.create storage wal ~wal_bytes:window ~snapshot_seq:0 in
  let engine = Engine.create () in
  (* a scratch engine mints the same event ids the real one will *)
  let scratch = Engine.create () in
  let ids = Array.init events (fun _ -> Engine.create_event scratch) in
  let create_cmd = Kronos_wire.Message.encode_request Message.Create_event in
  let seq = ref 0 in
  let apply payload =
    incr seq;
    ignore (Server.apply engine payload);
    Wal.append wal ~seq:!seq ~payload;
    if !seq land 31 = 0 then Schedule.commit schedule engine ~upto:!seq
  in
  for i = 0 to events - 1 do
    apply create_cmd;
    if i > 0 then
      apply
        (Message.encode_request
           (Message.Assign_order [ Order.must_before ids.(i - 1) ids.(i) ]))
  done;
  Wal.sync wal;
  if Schedule.last_snapshot schedule = 0 then
    failwith "smoke: recovery bench never snapshotted";
  Gc.compact ();
  let rss0 = resident_mb () in
  let outcome =
    Recovery.run ~wal_config
      ~replay:(fun e (r : Wal.record) -> ignore (Server.apply e r.payload))
      storage
  in
  let rss1 = resident_mb () in
  if outcome.Recovery.next_seq <> !seq + 1 then
    failwith "smoke: recovery lost acknowledged commands";
  if outcome.Recovery.wal_bytes_replayed > 2 * window then
    failwith "smoke: recovery replayed more than one window";
  record "durability.recovery_ms" outcome.Recovery.recovery_ms "ms";
  record "durability.replay_ms" outcome.Recovery.replay_ms "ms";
  record "durability.wal_replayed_mb"
    (float_of_int outcome.Recovery.wal_bytes_replayed /. 1e6)
    "MB";
  match rss0, rss1 with
  | Some r0, Some r1 -> record "durability.recovery_rss_mb" (r1 -. r0) "MB"
  | (None | Some _), _ -> ()

let write_json path =
  let oc = open_out path in
  output_string oc "{\n  \"schema\": \"kronos-bench-smoke/1\",\n";
  Printf.fprintf oc "  \"scale\": %S,\n"
    (if !Bench_util.full_scale then "full" else "quick");
  output_string oc "  \"results\": [\n";
  let entries =
    List.rev_map
      (fun (name, value, unit_) ->
        Printf.sprintf "    {\"name\": %S, \"value\": %.6g, \"unit\": %S}" name
          value unit_)
      !results
  in
  output_string oc (String.concat ",\n" entries);
  output_string oc "\n  ]\n}\n";
  close_out oc

(* Pull (name, value) pairs back out of a smoke snapshot.  The file is our
   own writer's output, one result object per line, so a line-level scan is
   enough — no JSON library needed. *)
let parse_results data =
  let results = ref [] in
  let scan i =
    let window = String.sub data i (min 160 (String.length data - i)) in
    try
      Scanf.sscanf window "{\"name\": %S, \"value\": %f" (fun name v ->
          results := (name, v) :: !results)
    with Scanf.Scan_failure _ | End_of_file | Failure _ -> ()
  in
  let rec loop i =
    match String.index_from_opt data i '{' with
    | None -> ()
    | Some j ->
      scan j;
      loop (j + 1)
  in
  loop 0;
  List.rev !results

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let data = really_input_string ic n in
  close_in ic;
  data

(* The bound of the exact work-count series. *)
let count_threshold = 1.1

(* Regression gate behind `make bench-check`: re-measure the engine hot
   paths, the client order cache and the certify series, and compare them
   with the committed BENCH_smoke.json.  The engine.*,
   client.order_cache_* and certify.* ns/op series, the promoted words
   per edge of [engine.assign_batch_wide_promoted] and the heap bytes per
   link of [engine.commitment_bytes_per_link] are in-process numbers,
   stable enough to gate.  [engine.bfs_visited_wide] and
   [engine.bfs_visited_reversed_must] are exact counts of slots visited
   (by queries and by cycle checks), so they take the tight
   [count_threshold] (1.1x): a 2x algorithmic regression that a 2.5x time
   bound would let through fails them.  [engine.digest_folds_per_edge],
   SHA-256 compressions per committed edge, is exact too and takes the
   same bound.  The pct series is held under an
   absolute budget ([assign_overhead_budget_pct]) instead of a baseline
   ratio — it is a difference of two noisy numbers.  The threshold is
   deliberately loose (2.5x) so only real regressions fail CI, not
   measurement noise; for ops/s and x series "worse" means lower, so the
   ratio inverts.  [engine.query_parallel_speedup] carries a hard floor
   for the multicore query plane — the parallel reader domains must beat
   the single-domain live rate by more than 2x — applied only on hosts
   with at least 4 recommended domains (a single-core machine cannot
   show parallel speedup).
   [durability.recovery_ms] is held under the absolute
   [recovery_ms_budget] — recovery time measures the bounded WAL tail,
   not the machine, so a budget is the honest gate; its companion
   [durability.replay_ms] and [durability.recovery_rss_mb] series are
   recorded for trend-watching but not gated. *)
let check () =
  Bench_util.section "Smoke: regression gate vs BENCH_smoke.json";
  let baseline_path =
    Option.value ~default:"BENCH_smoke.json"
      (Sys.getenv_opt "KRONOS_SMOKE_BASELINE")
  in
  if not (Sys.file_exists baseline_path) then begin
    Printf.eprintf "smoke-check: no baseline at %s (run `make bench-smoke` and commit it)\n"
      baseline_path;
    exit 2
  end;
  let baseline = parse_results (read_file baseline_path) in
  let threshold = 2.5 in
  (* exact work counts take a tight bound: host load does not move them *)
  let threshold_of name =
    if name = "engine.bfs_visited_wide"
       || name = "engine.bfs_visited_reversed_must"
       || name = "engine.digest_folds_per_edge"
    then count_threshold
    else threshold
  in
  results := [];
  durability_recovery_smoke ();
  engine_hot_paths ();
  order_cache_smoke ();
  query_parallel_smoke ();
  publish_smoke ();
  query_wide_smoke ();
  assign_batch_wide_smoke ();
  commitment_bytes_smoke ();
  digest_folds_smoke ();
  reversed_must_smoke ();
  certify_smoke ();
  let failures = ref 0 in
  List.iter
    (fun (name, value, unit_) ->
      if unit_ = "pct" then
        if value > assign_overhead_budget_pct then begin
          incr failures;
          Printf.printf "  %-32s %12.6g %s  above the %.0f pct budget  FAIL\n"
            name value unit_ assign_overhead_budget_pct
        end
        else
          Printf.printf "  %-32s %12.6g %s  (budget %.0f pct)  ok\n" name value
            unit_ assign_overhead_budget_pct
      else if name = "durability.recovery_ms" then
        if value > recovery_ms_budget then begin
          incr failures;
          Printf.printf "  %-32s %12.6g %s  above the %.0f ms budget  FAIL\n"
            name value unit_ recovery_ms_budget
        end
        else
          Printf.printf "  %-32s %12.6g %s  (budget %.0f ms)  ok\n" name value
            unit_ recovery_ms_budget
      else if name = "durability.replay_ms" || name = "durability.recovery_rss_mb"
      then
        Printf.printf "  %-32s %12.6g %s  (recorded, not gated)\n" name value
          unit_
      else if
        name = "engine.query_parallel_speedup"
        && Domain.recommended_domain_count () >= 4
        && value <= 2.0
      then begin
        incr failures;
        Printf.printf
          "  %-32s %12.6g %s  below the hard 2x floor (%d domains)  FAIL\n"
          name value unit_
          (Domain.recommended_domain_count ())
      end
      else
        match List.assoc_opt name baseline with
        | None ->
          Printf.printf "  %-32s %12.6g %s  (no baseline, skipped)\n" name value
            unit_
        | Some base ->
          let ratio =
            if base <= 0. || value <= 0. then 1.
            else if unit_ = "ops/s" || unit_ = "x" then base /. value
            else value /. base
          in
          let verdict =
            if ratio > threshold_of name then begin
              incr failures;
              "FAIL"
            end
            else "ok"
          in
          Printf.printf "  %-32s %12.6g %s  baseline %g  ratio %.2fx  %s\n" name
            value unit_ base ratio verdict)
    (List.rev !results);
  if !failures > 0 then begin
    Printf.eprintf
      "smoke-check: %d series regressed past their bound (%.1fx, exact \
       counts %.1fx) vs %s\n"
      !failures threshold count_threshold baseline_path;
    exit 1
  end;
  Bench_util.ours "all gated series within %.1fx (exact counts %.1fx) of %s"
    threshold count_threshold baseline_path

let run () =
  Bench_util.section "Smoke: quick performance snapshot -> BENCH_smoke.json";
  results := [];
  durability_recovery_smoke ();
  engine_hot_paths ();
  order_cache_smoke ();
  query_parallel_smoke ();
  publish_smoke ();
  query_wide_smoke ();
  assign_batch_wide_smoke ();
  commitment_bytes_smoke ();
  digest_folds_smoke ();
  reversed_must_smoke ();
  certify_smoke ();
  let path =
    Option.value ~default:"BENCH_smoke.json" (Sys.getenv_opt "KRONOS_SMOKE_OUT")
  in
  write_json path;
  List.iter
    (fun (name, value, unit_) ->
      Printf.printf "  %-32s %12.6g %s\n" name value unit_)
    (List.rev !results);
  Bench_util.ours "wrote %d series to %s" (List.length !results) path
