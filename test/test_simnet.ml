open Kronos_simnet

let test_heap_order () =
  let h = Heap.create () in
  Heap.push h ~time:3.0 ~seq:1 "c";
  Heap.push h ~time:1.0 ~seq:2 "a";
  Heap.push h ~time:2.0 ~seq:3 "b";
  Heap.push h ~time:1.0 ~seq:4 "a2";
  let popped = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some (_, _, v) -> popped := v :: !popped; drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "order" [ "a"; "a2"; "b"; "c" ] (List.rev !popped)

let test_heap_tie_break_fifo () =
  let h = Heap.create () in
  for i = 0 to 99 do
    Heap.push h ~time:1.0 ~seq:i i
  done;
  for i = 0 to 99 do
    match Heap.pop h with
    | Some (_, _, v) -> Alcotest.(check int) "fifo" i v
    | None -> Alcotest.fail "heap exhausted early"
  done

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~delay:2.0 (fun () -> log := "b" :: !log));
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> log := "a" :: !log));
  ignore (Sim.schedule sim ~delay:3.0 (fun () -> log := "c" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 3.0 (Sim.now sim)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~delay:1.0 (fun () ->
         log := "outer" :: !log;
         ignore (Sim.schedule sim ~delay:0.5 (fun () -> log := "inner" :: !log))));
  Sim.run sim;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 1.5 (Sim.now sim)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let timer = Sim.schedule sim ~delay:1.0 (fun () -> fired := true) in
  Sim.cancel timer;
  Sim.cancel timer;
  Alcotest.(check int) "pending" 0 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check bool) "not fired" false !fired

let test_sim_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  ignore (Sim.every sim ~period:1.0 (fun () -> incr count));
  Sim.run ~until:5.5 sim;
  Alcotest.(check int) "five ticks" 5 !count;
  Alcotest.(check (float 1e-9)) "clock advanced to until" 5.5 (Sim.now sim);
  Sim.run ~until:7.0 sim;
  (* ticks at t=6.0 and t=7.0 both fire *)
  Alcotest.(check int) "continues" 7 !count

let test_sim_every_cancel () =
  let sim = Sim.create () in
  let count = ref 0 in
  let handle = Sim.every sim ~period:1.0 (fun () -> incr count) in
  Sim.run ~until:3.5 sim;
  Sim.cancel handle;
  Sim.run ~until:10.0 sim;
  Alcotest.(check int) "stopped" 3 !count

let test_rng_determinism () =
  let a = Rng.create ~seed:42L in
  let b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done;
  let c = Rng.create ~seed:43L in
  Alcotest.(check bool) "different seed differs" true
    (Rng.next_int64 (Rng.create ~seed:42L) <> Rng.next_int64 c)

let test_rng_split_independence () =
  let root = Rng.create ~seed:7L in
  let s1 = Rng.split root in
  let s2 = Rng.split root in
  Alcotest.(check bool) "streams differ" true (Rng.next_int64 s1 <> Rng.next_int64 s2)

let test_rng_ranges () =
  let r = Rng.create ~seed:5L in
  for _ = 1 to 1000 do
    let i = Rng.int r 10 in
    Alcotest.(check bool) "int range" true (i >= 0 && i < 10);
    let f = Rng.float r 2.0 in
    Alcotest.(check bool) "float range" true (f >= 0.0 && f < 2.0);
    let e = Rng.exponential r ~mean:1.0 in
    Alcotest.(check bool) "exponential positive" true (e >= 0.0)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_net_delivery () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let received = ref [] in
  Net.register net 1 (fun ~src msg -> received := (src, msg) :: !received);
  Net.send net ~src:0 ~dst:1 "hello";
  Net.send net ~src:0 ~dst:1 "world";
  Sim.run sim;
  Alcotest.(check (list (pair int string))) "in order"
    [ (0, "hello"); (0, "world") ] (List.rev !received);
  Alcotest.(check int) "sent" 2 (Net.sent net);
  Alcotest.(check int) "delivered" 2 (Net.delivered net)

let test_net_fifo_under_jitter () =
  let sim = Sim.create ~seed:99L () in
  let net = Net.create ~latency:{ Net.base = 1e-3; jitter = 10e-3; drop = 0.0 } sim in
  let received = ref [] in
  Net.register net 1 (fun ~src:_ msg -> received := msg :: !received);
  for i = 0 to 49 do
    Net.send net ~src:0 ~dst:1 i
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo preserved" (List.init 50 Fun.id) (List.rev !received)

let test_net_no_fifo_can_reorder () =
  let sim = Sim.create ~seed:1L () in
  let net = Net.create ~fifo:false ~latency:{ Net.base = 0.0; jitter = 10e-3; drop = 0.0 } sim in
  let received = ref [] in
  Net.register net 1 (fun ~src:_ msg -> received := msg :: !received);
  for i = 0 to 49 do
    Net.send net ~src:0 ~dst:1 i
  done;
  Sim.run sim;
  Alcotest.(check bool) "reordering observed" true
    (List.rev !received <> List.init 50 Fun.id)

let test_net_crash_drops () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let received = ref 0 in
  Net.register net 1 (fun ~src:_ _ -> incr received);
  Net.send net ~src:0 ~dst:1 "a";
  Net.unregister net 1;
  Sim.run sim;
  Alcotest.(check int) "in-flight dropped" 0 !received;
  Alcotest.(check int) "dropped counted" 1 (Net.dropped net);
  Alcotest.(check bool) "not registered" false (Net.is_registered net 1)

let test_net_partition_heal () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let received = ref 0 in
  Net.register net 1 (fun ~src:_ _ -> incr received);
  Net.partition net [ 0 ] [ 1 ];
  Net.send net ~src:0 ~dst:1 "lost";
  Sim.run sim;
  Alcotest.(check int) "partitioned" 0 !received;
  Net.heal net;
  Net.send net ~src:0 ~dst:1 "found";
  Sim.run sim;
  Alcotest.(check int) "healed" 1 !received

let test_net_drop_probability () =
  let sim = Sim.create ~seed:3L () in
  let net = Net.create ~latency:{ Net.base = 1e-3; jitter = 0.0; drop = 0.5 } sim in
  let received = ref 0 in
  Net.register net 1 (fun ~src:_ _ -> incr received);
  for _ = 1 to 1000 do
    Net.send net ~src:0 ~dst:1 ()
  done;
  Sim.run sim;
  Alcotest.(check bool) "some dropped" true (!received < 1000);
  Alcotest.(check bool) "some delivered" true (!received > 0);
  Alcotest.(check bool) "roughly half" true (!received > 350 && !received < 650)

(* Determinism: the same seed yields the identical delivery trace. *)
let test_net_determinism () =
  let trace seed =
    let sim = Sim.create ~seed () in
    let net = Net.create ~latency:{ Net.base = 1e-3; jitter = 5e-3; drop = 0.1 } sim in
    let log = ref [] in
    for a = 0 to 3 do
      Net.register net a (fun ~src msg ->
          log := (Sim.now sim, src, a, msg) :: !log)
    done;
    let rng = Rng.create ~seed:(Int64.add seed 1L) in
    for i = 0 to 199 do
      Net.send net ~src:(Rng.int rng 4) ~dst:(Rng.int rng 4) i
    done;
    Sim.run sim;
    List.rev !log
  in
  Alcotest.(check bool) "identical traces" true (trace 11L = trace 11L);
  Alcotest.(check bool) "seed changes trace" true (trace 11L <> trace 12L)

(* Capacity model: zero-latency links, so each message reaches its
   server at (about) the instant it was sent. *)
let instant = { Net.base = 0.0; jitter = 0.0; drop = 0.0 }

type work = Work of float | Beat

let costed sim =
  let net = Net.create ~latency:instant sim in
  Net.set_service net 1 (function Work cost -> Some cost | Beat -> None);
  net

let run_log sim log who ~src:_ msg =
  let tag = match msg with Work cost -> Printf.sprintf "%g" cost | Beat -> "beat" in
  log := (who ^ ":" ^ tag, Sim.now sim) :: !log

let check_log expected log =
  let time = Alcotest.float 1e-6 in
  Alcotest.(check (list (pair string time))) "runs" expected (List.rev !log)

let test_service_serializes () =
  let sim = Sim.create () in
  let net = costed sim in
  let log = ref [] in
  Net.register net 1 (run_log sim log "s");
  List.iter (fun c -> Net.send net ~src:0 ~dst:1 (Work c)) [ 1.0; 2.0; 1.0 ];
  Sim.run sim;
  check_log [ ("s:1", 0.0); ("s:2", 1.0); ("s:1", 3.0) ] log;
  Alcotest.(check int) "delivered" 3 (Net.delivered net)

let test_service_uncosted_bypasses () =
  let sim = Sim.create () in
  let net = costed sim in
  let log = ref [] in
  Net.register net 1 (run_log sim log "s");
  Net.send net ~src:0 ~dst:1 (Work 5.0);
  Net.send net ~src:0 ~dst:1 (Work 1.0);
  ignore (Sim.schedule sim ~delay:1.0 (fun () -> Net.send net ~src:0 ~dst:1 Beat));
  Sim.run sim;
  check_log [ ("s:5", 0.0); ("s:beat", 1.0); ("s:1", 5.0) ] log

(* A crash stops the server: work it queued before [unregister] never
   runs, and a fresh registration starts with an idle queue. *)
let test_service_reregister () =
  let sim = Sim.create () in
  let net = costed sim in
  let log = ref [] in
  Net.register net 1 (run_log sim log "old");
  Net.send net ~src:0 ~dst:1 (Work 10.0);
  Net.send net ~src:0 ~dst:1 (Work 1.0);
  ignore
    (Sim.schedule sim ~delay:1.0 (fun () ->
         Net.unregister net 1;
         Net.register net 1 (run_log sim log "new");
         Net.send net ~src:0 ~dst:1 (Work 2.0)));
  Sim.run sim;
  check_log [ ("old:10", 0.0); ("new:2", 1.0) ] log;
  Alcotest.(check int) "queued work of the crashed server dropped" 1
    (Net.dropped net)

let suites =
  [ ( "simnet",
      [
        Alcotest.test_case "heap order" `Quick test_heap_order;
        Alcotest.test_case "heap fifo ties" `Quick test_heap_tie_break_fifo;
        Alcotest.test_case "sim ordering" `Quick test_sim_ordering;
        Alcotest.test_case "sim nested schedule" `Quick test_sim_nested_schedule;
        Alcotest.test_case "sim cancel" `Quick test_sim_cancel;
        Alcotest.test_case "sim run until" `Quick test_sim_run_until;
        Alcotest.test_case "sim every cancel" `Quick test_sim_every_cancel;
        Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
        Alcotest.test_case "rng split independence" `Quick test_rng_split_independence;
        Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
        Alcotest.test_case "net delivery" `Quick test_net_delivery;
        Alcotest.test_case "net fifo under jitter" `Quick test_net_fifo_under_jitter;
        Alcotest.test_case "net non-fifo reorders" `Quick test_net_no_fifo_can_reorder;
        Alcotest.test_case "net crash drops" `Quick test_net_crash_drops;
        Alcotest.test_case "net partition/heal" `Quick test_net_partition_heal;
        Alcotest.test_case "net drop probability" `Quick test_net_drop_probability;
        Alcotest.test_case "net determinism" `Quick test_net_determinism;
        Alcotest.test_case "service serializes" `Quick test_service_serializes;
        Alcotest.test_case "service uncosted bypasses" `Quick
          test_service_uncosted_bypasses;
        Alcotest.test_case "service re-register idle" `Quick test_service_reregister;
      ] );
  ]
