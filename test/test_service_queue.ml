open Kronos_simnet

let test_fixed_serializes () =
  let sim = Sim.create () in
  let q = Service_queue.create sim in
  let log = ref [] in
  Service_queue.submit_fixed q ~cost:1.0 (fun () -> log := ("a", Sim.now sim) :: !log);
  Service_queue.submit_fixed q ~cost:2.0 (fun () -> log := ("b", Sim.now sim) :: !log);
  Service_queue.submit_fixed q ~cost:1.0 (fun () -> log := ("c", Sim.now sim) :: !log);
  Sim.run sim;
  (* a starts at 0, b after a's cost (t=1), c after b's (t=3) *)
  Alcotest.(check (list (pair string (float 1e-9)))) "start times"
    [ ("a", 0.0); ("b", 1.0); ("c", 3.0) ]
    (List.rev !log);
  Alcotest.(check (float 1e-9)) "total busy" 4.0 (Service_queue.total_busy q);
  Alcotest.(check int) "jobs" 3 (Service_queue.jobs q)

let test_idle_server_runs_immediately () =
  let sim = Sim.create () in
  let q = Service_queue.create sim in
  let ran_at = ref nan in
  ignore
    (Sim.schedule sim ~delay:5.0 (fun () ->
         Service_queue.submit_fixed q ~cost:1.0 (fun () -> ran_at := Sim.now sim)));
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "no queueing when idle" 5.0 !ran_at

let test_throughput_bounded_by_cost () =
  let sim = Sim.create () in
  let q = Service_queue.create sim in
  let completed = ref 0 in
  (* offer 1000 jobs instantly; at 10 ms each, only ~100 fit in 1 s *)
  for _ = 1 to 1000 do
    Service_queue.submit_fixed q ~cost:10e-3 (fun () -> incr completed)
  done;
  Sim.run ~until:1.0 sim;
  Alcotest.(check bool)
    (Printf.sprintf "~100 jobs in 1s (got %d)" !completed)
    true
    (!completed >= 99 && !completed <= 101)

let test_negative_cost_rejected () =
  let sim = Sim.create () in
  let q = Service_queue.create sim in
  Alcotest.check_raises "negative"
    (Invalid_argument "Service_queue.submit_fixed: negative cost") (fun () ->
      Service_queue.submit_fixed q ~cost:(-1.0) ignore)

let suites =
  [ ( "service_queue",
      [
        Alcotest.test_case "fixed serializes" `Quick test_fixed_serializes;
        Alcotest.test_case "idle runs immediately" `Quick test_idle_server_runs_immediately;
        Alcotest.test_case "throughput bounded" `Quick test_throughput_bounded_by_cost;
        Alcotest.test_case "negative cost rejected" `Quick test_negative_cost_rejected;
      ] );
  ]
