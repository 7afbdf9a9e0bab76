(* Figure 13: fault tolerance timeline.

   A 2-fault-tolerant (3-replica) Kronos cluster under steady client load.
   At t = 30 s the middle replica of the chain is killed; the coordinator
   detects the failure and reconfigures.  At t = 60 s a fresh server joins
   at the tail (full state transfer) and the chain is 3 long again.  The
   paper shows the cluster staying available throughout, with a brief dip
   around each transition. *)

open Kronos
open Kronos_simnet

let clients = 16

let run () =
  Bench_util.section "Figure 13: throughput through failure and recovery (3-replica chain)";
  Bench_util.paper
    "kill middle replica at t=30s, add fresh one at t=60s; service stays available, throughput recovers";
  let sim = Sim.create ~seed:99L () in
  let net = Kronos_transport.Sim_transport.of_net (Net.create sim) in
  let cluster =
    Kronos_service.Server.deploy ~net ~coordinator:1000 ~replicas:[ 0; 1; 2 ]
      ~service:20e-6 ~ping_interval:0.25 ~failure_timeout:1.0 ()
  in
  (* workload: a mix of ordering writes and stale reads, closed loop *)
  let completed = ref 0 in
  let horizon = 90.0 in
  let make_client i =
    (* cache disabled: every operation must reach the service, so the
       timeline reflects service availability *)
    Kronos_service.Client.create ~net ~addr:(5000 + i) ~coordinator:1000
      ~cache_capacity:0 ~request_timeout:1.0 ()
  in
  let rec loop client rng prev =
    if Sim.now sim < horizon then begin
      match prev with
      | Some (p, q) when Rng.float rng 1.0 < 0.5 ->
        Kronos_service.Client.query_order client ~stale:true [ (p, q) ]
          (fun _ ->
            incr completed;
            loop client rng prev)
      | Some _ | None ->
        Kronos_service.Client.create_event client (fun e ->
            let e = Result.get_ok e in
            incr completed;
            match prev with
            | Some (_, q) ->
              Kronos_service.Client.assign_order client
                [ Order.prefer_before q e ]
                (fun _ ->
                  incr completed;
                  loop client rng (Some (q, e)))
            | None -> loop client rng (Some (e, e)))
    end
  in
  for i = 0 to clients - 1 do
    loop (make_client i) (Rng.split (Sim.rng sim)) None
  done;
  (* fault injection *)
  ignore
    (Sim.schedule sim ~delay:30.0 (fun () ->
         Kronos_service.Server.crash cluster 1));
  ignore
    (Sim.schedule sim ~delay:60.0 (fun () ->
         Kronos_service.Server.join cluster 7 ~service:20e-6 ()));
  (* sample completed ops per second of virtual time *)
  let windows = int_of_float horizon in
  let series = Array.make windows 0 in
  let last = ref 0 in
  for w = 0 to windows - 1 do
    Sim.run ~until:(float_of_int (w + 1)) sim;
    series.(w) <- !completed - !last;
    last := !completed
  done;
  (* print a coarse timeline: 5-second buckets with a bar chart *)
  let bucket = 5 in
  Printf.printf "  %8s %14s\n%!" "t (s)" "ops/s";
  let peak = Array.fold_left max 1 series in
  for b = 0 to (windows / bucket) - 1 do
    let slice = Array.sub series (b * bucket) bucket in
    let avg = Array.fold_left ( + ) 0 slice / bucket in
    let bar = String.make (max 0 (40 * avg / peak)) '#' in
    let marker =
      if b * bucket = 30 then "  <- middle replica killed"
      else if b * bucket = 60 then "  <- fresh replica joins"
      else ""
    in
    Printf.printf "  %5d-%-3d %12d  %s%s\n%!" (b * bucket) ((b + 1) * bucket) avg
      bar marker
  done;
  (* availability: every window must have served requests *)
  let stalled = Array.exists (fun c -> c = 0) series in
  Bench_util.ours "service remained available in every 1 s window: %b" (not stalled);
  let before = Array.sub series 20 10 in
  let after = Array.sub series 80 10 in
  let mean a = Array.fold_left ( + ) 0 a / Array.length a in
  Bench_util.ours "throughput before failure ~%d ops/s; after recovery ~%d ops/s"
    (mean before) (mean after)
