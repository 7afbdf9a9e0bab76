(* Unit and property tests for the observability primitives: instrument
   behaviour, the no-op gate, histogram bucket geometry and quantile
   extraction, registry idempotence, read-only gauges and the text
   exposition. *)

module M = Kronos_metrics

let test_counter_gauge () =
  let c = M.Counter.make () in
  M.Counter.incr c;
  M.Counter.add c 4;
  Alcotest.(check int) "counter" 5 (M.Counter.value c);
  let g = M.Gauge.make () in
  M.Gauge.set g 7;
  M.Gauge.add g (-3);
  Alcotest.(check int) "gauge" 4 (M.Gauge.value g)

let test_noop_gate () =
  let c = M.Counter.make () in
  let g = M.Gauge.make () in
  let h = M.Histogram.make () in
  M.set_enabled false;
  Fun.protect ~finally:(fun () -> M.set_enabled true) (fun () ->
      Alcotest.(check bool) "disabled" false (M.enabled ());
      M.Counter.incr c;
      M.Gauge.set g 9;
      M.Histogram.observe h 0.5;
      Alcotest.(check int) "counter frozen" 0 (M.Counter.value c);
      Alcotest.(check int) "gauge frozen" 0 (M.Gauge.value g);
      Alcotest.(check int) "histogram frozen" 0 (M.Histogram.count h));
  Alcotest.(check bool) "re-enabled" true (M.enabled ());
  M.Counter.incr c;
  Alcotest.(check int) "records again" 1 (M.Counter.value c)

let test_bucket_geometry () =
  (* values in bucket [i] lie in [bucket_upper i / 2, bucket_upper i) *)
  List.iter
    (fun v ->
      let i = M.Histogram.bucket_of v in
      let upper = M.Histogram.bucket_upper i in
      if i > 0 && i < M.Histogram.bucket_count - 1 then begin
        Alcotest.(check bool)
          (Printf.sprintf "%g < upper %g" v upper)
          true (v < upper);
        Alcotest.(check bool)
          (Printf.sprintf "%g >= lower %g" v (upper /. 2.))
          true (v >= upper /. 2.)
      end)
    [ 1e-9; 3e-7; 1e-4; 0.001; 0.004; 0.3; 1.0; 17.0; 3600.0 ];
  (* clamped ends *)
  Alcotest.(check int) "zero -> lowest" 0 (M.Histogram.bucket_of 0.);
  Alcotest.(check int) "negative -> lowest" 0 (M.Histogram.bucket_of (-3.));
  Alcotest.(check int) "tiny -> lowest" 0 (M.Histogram.bucket_of 1e-30);
  Alcotest.(check int) "huge -> highest"
    (M.Histogram.bucket_count - 1)
    (M.Histogram.bucket_of 1e12);
  (* exact powers of two start a new bucket *)
  Alcotest.(check int) "1.0 above 0.5"
    (M.Histogram.bucket_of 0.75 + 1)
    (M.Histogram.bucket_of 1.0)

let test_histogram_quantiles () =
  let h = M.Histogram.make () in
  Alcotest.(check (float 0.)) "empty quantile" 0. (M.Histogram.quantile h 0.5);
  Alcotest.(check (float 0.)) "empty max" 0. (M.Histogram.max_value h);
  (* 90 fast observations and 10 slow ones: p50 tracks the fast mode, p99
     the slow one, within the factor-sqrt(2) bucket resolution *)
  for _ = 1 to 90 do
    M.Histogram.observe h 0.001
  done;
  for _ = 1 to 10 do
    M.Histogram.observe h 0.1
  done;
  Alcotest.(check int) "count" 100 (M.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" (90. *. 0.001 +. 10. *. 0.1)
    (M.Histogram.sum h);
  Alcotest.(check (float 1e-12)) "max exact" 0.1 (M.Histogram.max_value h);
  let p50 = M.Histogram.quantile h 0.5 in
  Alcotest.(check bool) "p50 in fast bucket" true (p50 >= 0.0005 && p50 < 0.002);
  let p99 = M.Histogram.quantile h 0.99 in
  Alcotest.(check bool) "p99 in slow bucket" true (p99 >= 0.05 && p99 <= 0.1);
  Alcotest.(check (float 1e-12)) "q>=1 is exact max" 0.1
    (M.Histogram.quantile h 1.0);
  (* a single observation: every quantile collapses to (about) it *)
  let h1 = M.Histogram.make () in
  M.Histogram.observe h1 0.02;
  let p = M.Histogram.quantile h1 0.5 in
  Alcotest.(check bool) "single obs" true (p >= 0.01 && p <= 0.02)

let test_registry_idempotent () =
  let s = M.scope "testmetrics" in
  let c1 = M.counter s "hits_total" in
  M.Counter.incr c1;
  let c2 = M.counter s "hits_total" in
  Alcotest.(check int) "same instrument" 1 (M.Counter.value c2);
  (* distinct labels are distinct series *)
  let l1 = M.counter s ~labels:[ ("op", "a") ] "labeled_total" in
  let l2 = M.counter s ~labels:[ ("op", "b") ] "labeled_total" in
  M.Counter.incr l1;
  Alcotest.(check int) "label isolation" 0 (M.Counter.value l2);
  (* re-registering under another kind is a programming error *)
  match M.gauge s "hits_total" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected kind mismatch to raise"

(* A read-only gauge keeps its value through the no-op gate and resets,
   renders as a gauge, and refuses re-registration with another value. *)
let test_read_only_gauge () =
  let s = M.scope "testconst" in
  M.read_only_gauge s "mode" 1;
  M.read_only_gauge s "mode" 1;
  let v () = List.assoc_opt "kronos_testconst_mode" (M.samples ()) in
  M.set_enabled false;
  Fun.protect ~finally:(fun () -> M.set_enabled true) (fun () ->
      M.reset ();
      Alcotest.(check (option (float 0.))) "survives gate and reset" (Some 1.)
        (v ()));
  M.reset ();
  Alcotest.(check (option (float 0.))) "survives reset" (Some 1.) (v ());
  let page = M.render () in
  List.iter
    (fun line ->
      Alcotest.(check bool) line true
        (List.mem line (String.split_on_char '\n' page)))
    [ "# TYPE kronos_testconst_mode gauge"; "kronos_testconst_mode 1" ];
  (match M.read_only_gauge s "mode" 0 with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "re-registered with another value");
  match M.counter s "mode" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "read-only gauge re-registered as a counter"

let test_samples_and_render () =
  let s = M.scope "testrender" in
  let c = M.counter s "ops_total" in
  M.Counter.add c 3;
  let h = M.histogram s ~labels:[ ("op", "q") ] "lat_seconds" in
  M.Histogram.observe h 0.25;
  let samples = M.samples () in
  let v name = List.assoc name samples in
  Alcotest.(check (float 0.)) "counter sample" 3. (v "kronos_testrender_ops_total");
  Alcotest.(check (float 0.)) "hist count" 1.
    (v "kronos_testrender_lat_seconds_count{op=\"q\"}");
  Alcotest.(check (float 1e-12)) "hist max" 0.25
    (v "kronos_testrender_lat_seconds_max{op=\"q\"}");
  Alcotest.(check bool) "quantile series present" true
    (List.mem_assoc "kronos_testrender_lat_seconds{op=\"q\",quantile=\"0.5\"}" samples);
  (* names come out sorted *)
  let names = List.map fst samples in
  Alcotest.(check bool) "sorted" true (List.sort compare names = names);
  let page = M.render () in
  let has needle =
    let n = String.length needle and len = String.length page in
    let rec at i =
      i + n <= len && (String.sub page i n = needle || at (i + 1))
    in
    at 0
  in
  Alcotest.(check bool) "TYPE counter" true
    (has "# TYPE kronos_testrender_ops_total counter");
  Alcotest.(check bool) "TYPE summary" true
    (has "# TYPE kronos_testrender_lat_seconds summary");
  Alcotest.(check bool) "counter line" true (has "kronos_testrender_ops_total 3");
  M.reset ();
  Alcotest.(check int) "reset zeroes" 0 (M.Counter.value c);
  Alcotest.(check int) "reset zeroes histograms" 0 (M.Histogram.count h)

let prop_bucket_invariant =
  let open QCheck2 in
  Test.make ~name:"histogram bucket geometry" ~count:500
    Gen.(float_range 1e-10 1e5)
    (fun v ->
      let i = M.Histogram.bucket_of v in
      i >= 0
      && i < M.Histogram.bucket_count
      && (i = 0 || v >= M.Histogram.bucket_upper i /. 2.)
      && (i = M.Histogram.bucket_count - 1 || v < M.Histogram.bucket_upper i))

let prop_quantile_bounds =
  let open QCheck2 in
  Test.make ~name:"quantiles bounded by max and monotone" ~count:200
    Gen.(list_size (int_range 1 50) (float_range 1e-7 100.))
    (fun vs ->
      let h = M.Histogram.make () in
      List.iter (M.Histogram.observe h) vs;
      let qs = List.map (M.Histogram.quantile h) [ 0.1; 0.5; 0.9; 0.99; 1.0 ] in
      List.for_all (fun q -> q <= M.Histogram.max_value h && q >= 0.) qs
      && List.sort compare qs = qs
      && M.Histogram.quantile h 1.0 = M.Histogram.max_value h)

let suites =
  [ ( "metrics",
      [
        Alcotest.test_case "counter and gauge" `Quick test_counter_gauge;
        Alcotest.test_case "no-op gate" `Quick test_noop_gate;
        Alcotest.test_case "bucket geometry" `Quick test_bucket_geometry;
        Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
        Alcotest.test_case "registry idempotent" `Quick test_registry_idempotent;
        Alcotest.test_case "samples and render" `Quick test_samples_and_render;
        Alcotest.test_case "read-only gauge" `Quick test_read_only_gauge;
        QCheck_alcotest.to_alcotest prop_bucket_invariant;
        QCheck_alcotest.to_alcotest prop_quantile_bounds;
      ] );
  ]
