(* Figure 10: memory consumption vs number of events.

   The paper holds one reference per event and reports linear growth — 12 GB
   for 100 M events (~120 B/event) — with discontinuities at array-doubling
   points.  We create events the same way and report the engine's internal
   accounting, [Engine.memory_bytes]: every block the graph holds, header
   words included, which test_graph holds within 5% of the live heap words
   a graph adds. *)

open Kronos

let run () =
  Bench_util.section "Figure 10: memory consumption vs events";
  let total = Bench_util.scaled 2_000_000 20_000_000 in
  let steps = 10 in
  let engine = Engine.create () in
  Bench_util.paper "linear, ~120 B/event (12 GB at 100 M events), array-doubling steps";
  Printf.printf "  %12s %14s %12s\n%!" "events" "memory" "bytes/event";
  let per_event_samples = ref [] in
  for step = 1 to steps do
    let target = total / steps * step in
    while Engine.live_events engine < target do
      ignore (Engine.create_event engine)
    done;
    let bytes = Engine.memory_bytes engine in
    let per_event = float_of_int bytes /. float_of_int target in
    per_event_samples := per_event :: !per_event_samples;
    Printf.printf "  %12d %11.1f MB %12.1f\n%!" target
      (float_of_int bytes /. 1e6)
      per_event
  done;
  let samples = !per_event_samples in
  let mean = List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples) in
  Bench_util.ours "bytes/event settles near %.0f B (paper: ~120 B incl. one ref)" mean;
  (* linearity: growth between half and full size must be ~2x *)
  ()
