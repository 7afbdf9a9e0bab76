(* Service benchmark: three traffic mixes over a durable 3-replica TCP
   chain (see README.md next to this file).

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object; everything before
   it is the human-readable report.  A failed output check exits 1 and
   prints no metrics. *)

open Kronos
module Client = Kronos_service.Client
module Error = Kronos_service.Error
module Chain = Kronos_replication.Chain
module Tcp = Kronos_transport.Tcp_transport
module Rng = Kronos_simnet.Rng
module Zipf = Kronos_workload.Zipf
module Graph_gen = Kronos_workload.Graph_gen

type workload = Write_chain | Read_wide | Mixed_rw

let workloads =
  [ ("write_chain", Write_chain); ("read_wide", Read_wide); ("mixed_rw", Mixed_rw) ]

(* {1 Fixed parameters} *)

let call_timeout = 2.0 (* per-call deadline: a later reply counts as failed *)
let request_timeout = 0.5 (* proxy retransmission interval (client default) *)
let outstanding = 8 (* closed-loop requests in flight *)
let setups = 3 (* setup_s is the median of this many full set-ups *)
(* restart_cpu_s is the median CPU time of the recoveries made by three
   probes (after set-up, after the open loop, after the checks), each a
   fresh process timing [restarts_per_probe] recoveries [restart_gap_s]
   apart. *)
let restarts_per_probe = 5
let restart_gap_s = 0.1
let warmup_s = 0.3
let snapshot_every = 1024 (* Server.durability default *)

(* Open-loop offered rates, a third to a half of each mix's closed-loop
   capacity on a quiet 2-core x86-64 VM (write_chain ~2.0k, read_wide
   ~24k, mixed_rw ~3.2k ops/s); read_wide sits at a third because there
   a slow stretch of the shared host made the backlog grow. *)
let open_rate = function
  | Write_chain -> 1100.
  | Read_wide -> 8000.
  | Mixed_rw -> 1600.

(* Open-loop validity: the generator may run at most this late (p99), and
   the backlog may not grow over the phase. *)
let late_bound_us = 20_000.

let read_wide_n = 10_000
let read_wide_m = 50_000
let mixed_sessions = 16
let mixed_chain_len = 64
let write_sessions = 64

exception Check_failed of string

let check cond msg = if not cond then raise (Check_failed msg)

(* {1 Workload state} *)

type op =
  | Write of int  (** the next write of session [s] *)
  | Pair of int * int  (** read_wide: two graph vertices *)
  | Recent of int * int * int * int
      (** mixed_rw: (session, Zipf rank) for each end of the pair *)

type stage = Need_create | Need_assign of Event_id.t | Need_release of Event_id.t

(* A session runs write_chain steps: create e; assign prev -> e; release
   prev.  Its writes depend on each other, so it has at most one in
   flight; later ones wait in [waiting]. *)
type session = {
  mutable prev : Event_id.t option;
  mutable stage : stage;
  events : Event_id.t Vec.t;  (** ordered events, oldest first *)
  mutable busy : bool;
  waiting : (unit -> unit) Queue.t;
}

let new_session () =
  { prev = None; stage = Need_create; events = Vec.create ~dummy:Event_id.none ();
    busy = false; waiting = Queue.create () }

type ctx = {
  wl : workload;
  c : Cluster.t;
  sessions : session array;
  vertices : Event_id.t array;
  acked : (Event_id.t * Event_id.t) Vec.t;  (** acknowledged must_before *)
  released : (Event_id.t, unit) Hashtbl.t;
  maybe_released : (Event_id.t, unit) Hashtbl.t;
      (** sources of releases that failed: they may still have applied *)
  answers : (Event_id.t * Event_id.t * Order.relation) Vec.t;
  mutable bad_release : int;
  mutable base_live : int;  (** live events before the timed phases *)
}

let max_answers = 100_000

type phase = {
  name : string;
  mutable start_ns : int;
  mutable end_ns : int;
  mutable arrivals : int;
  mutable attempted : int;
  mutable failed : int;
  mutable pending : int;  (** handed to [issue], not yet completed *)
  mutable ok_in_window : int;
  mutable done_in_window : int;
  mutable writes_in_window : int;
  mutable marks : (int * int) list;
      (** closed loop: (ops acknowledged, CPU ns) at each window's end,
          newest first *)
  lat : Samples.t;
  ok_at : Samples.t;  (** completion times of in-window successes *)
  lat_read : Samples.t;
  lat_write : Samples.t;
  late : Samples.t;
  backlog : Samples.t;
}

let new_phase name =
  { name; start_ns = 0; end_ns = max_int; arrivals = 0; attempted = 0; failed = 0;
    pending = 0; ok_in_window = 0; done_in_window = 0; writes_in_window = 0;
    marks = []; lat = Samples.create (); ok_at = Samples.create ();
    lat_read = Samples.create ();
    lat_write = Samples.create (); late = Samples.create ();
    backlog = Samples.create () }

let failed_latency = max_int

let complete ph ~is_read ~due ok =
  let now = Tracer.now_ns () in
  let lat = if ok then now - due else failed_latency in
  if not ok then ph.failed <- ph.failed + 1;
  if now <= ph.end_ns then begin
    ph.done_in_window <- ph.done_in_window + 1;
    if ok then begin
      ph.ok_in_window <- ph.ok_in_window + 1;
      Samples.add ph.ok_at now
    end;
    if not is_read then ph.writes_in_window <- ph.writes_in_window + 1
  end;
  Samples.add ph.lat lat;
  Samples.add (if is_read then ph.lat_read else ph.lat_write) lat;
  ph.pending <- ph.pending - 1

let call f = Tracer.span ~layer:Tracer.client "client.call" f
let on_ack f = Tracer.span ~layer:Tracer.loadgen "loadgen.ack" f

(* write_chain collects every released event (its predecessor is already
   gone); mixed_rw sessions keep their preloaded heads, so nothing is. *)
let expected_collect = function Write_chain -> 1 | Read_wide | Mixed_rw -> 0

let write_step ctx ph ss ~due k =
  let c = ctx.c.client in
  ph.attempted <- ph.attempted + 1;
  let fin ok = complete ph ~is_read:false ~due ok; k () in
  match ss.stage with
  | Need_create ->
    call (fun () ->
        Client.create_event c ~timeout:call_timeout (fun r ->
            on_ack (fun () ->
                match r with
                | Ok e ->
                  (match ss.prev with
                   | None ->
                     ss.prev <- Some e;
                     Vec.push ss.events e
                   | Some _ -> ss.stage <- Need_assign e);
                  fin true
                | Error _ -> fin false)))
  | Need_assign e ->
    let p = Option.get ss.prev in
    call (fun () ->
        Client.assign_order c ~timeout:call_timeout [ Order.must_before p e ] (fun r ->
            on_ack (fun () ->
                match r with
                | Ok [ (Order.Applied | Order.Already) ] ->
                  Vec.push ctx.acked (p, e);
                  Vec.push ss.events e;
                  ss.stage <- Need_release e;
                  fin true
                | Ok _ -> raise (Check_failed "assign_order: unexpected outcome")
                | Error _ -> fin false)))
  | Need_release e ->
    let p = Option.get ss.prev in
    call (fun () ->
        Client.release_ref c ~timeout:call_timeout p (fun r ->
            on_ack (fun () ->
                (* a failed release may still have applied: move on either way *)
                ss.prev <- Some e;
                ss.stage <- Need_create;
                match r with
                | Ok n ->
                  if n <> expected_collect ctx.wl then ctx.bad_release <- ctx.bad_release + 1;
                  Hashtbl.replace ctx.released p ();
                  fin true
                | Error _ ->
                  Hashtbl.replace ctx.maybe_released p ();
                  fin false)))

let read ctx ph (e1, e2) ~due k =
  let c = ctx.c.client in
  ph.attempted <- ph.attempted + 1;
  let consistency =
    match ctx.wl with
    | Mixed_rw -> `At_least (Client.last_epoch c)
    | Write_chain | Read_wide -> `Latest
  in
  call (fun () ->
      Client.query_order c ~timeout:call_timeout ~consistency [ (e1, e2) ] (fun r ->
          on_ack (fun () ->
              match r with
              | Ok [ rel ] ->
                if Vec.length ctx.answers < max_answers then
                  Vec.push ctx.answers (e1, e2, rel);
                complete ph ~is_read:true ~due true;
                k ()
              | Ok _ -> raise (Check_failed "query_order: wrong answer count")
              | Error _ ->
                complete ph ~is_read:true ~due false;
                k ())))

(* Event [rank] places back from the newest ordered event of a session. *)
let recent ss rank =
  let n = Vec.length ss.events in
  Vec.get ss.events (n - 1 - (rank mod n))

let issue ctx ph op ~due k =
  ph.pending <- ph.pending + 1;
  match op with
  | Write s ->
    let ss = ctx.sessions.(s) in
    let go () =
      ss.busy <- true;
      write_step ctx ph ss ~due (fun () ->
          ss.busy <- false;
          (match Queue.take_opt ss.waiting with Some f -> f () | None -> ());
          k ())
    in
    if ss.busy then Queue.add go ss.waiting else go ()
  | Pair (u, v) -> read ctx ph (ctx.vertices.(u), ctx.vertices.(v)) ~due k
  | Recent (a, ra, b, rb) ->
    read ctx ph (recent ctx.sessions.(a) ra, recent ctx.sessions.(b) rb) ~due k

(* {1 Inputs from the seed} *)

type gen = { rng : Rng.t; zipf : Zipf.t }

(* [user] = None: an open-loop arrival, any session; Some u: closed-loop
   user u, which owns the sessions congruent to u, so users never queue
   behind each other. *)
let next_op wl g ~user =
  let session n =
    match user with
    | None -> Rng.int g.rng n
    | Some u -> u + (outstanding * Rng.int g.rng (n / outstanding))
  in
  match wl with
  | Write_chain -> Write (session write_sessions)
  | Read_wide ->
    let u = Rng.int g.rng read_wide_n in
    let v = (u + 1 + Rng.int g.rng (read_wide_n - 1)) mod read_wide_n in
    Pair (u, v)
  | Mixed_rw ->
    if Rng.float g.rng 1.0 < 0.8 then begin
      let a = Rng.int g.rng mixed_sessions in
      let b = if Rng.bool g.rng then a else Rng.int g.rng mixed_sessions in
      let ra = Zipf.sample g.zipf g.rng in
      let rb = Zipf.sample g.zipf g.rng in
      Recent (a, ra, b, rb)
    end
    else Write (session mixed_sessions)

let new_gen rng = { rng = Rng.split rng; zipf = Zipf.create ~n:256 () }

(* read_wide's graph: G(n, m) with every edge oriented low -> high. *)
let wide_edges rng =
  let g = Graph_gen.erdos_renyi_gnm ~rng ~n:read_wide_n ~m:read_wide_m in
  Array.map (fun (u, v) -> (min u v, max u v)) g.Graph_gen.edges

(* mixed_rw's sessions: [mixed_sessions] chains plus, for 1 in 16 events,
   a must edge from another chain's previous position (positions only
   increase along an edge, so the graph stays acyclic). *)
let mixed_edges rng =
  let edges = ref [] in
  for s = 0 to mixed_sessions - 1 do
    for i = 1 to mixed_chain_len - 1 do
      edges := ((s, i - 1), (s, i)) :: !edges;
      if Rng.int rng 16 = 0 then begin
        let s' = (s + 1 + Rng.int rng (mixed_sessions - 1)) mod mixed_sessions in
        edges := ((s', i - 1), (s, i)) :: !edges
      end
    done
  done;
  Array.of_list (List.rev !edges)

let chunks size a =
  let n = Array.length a in
  List.init ((n + size - 1) / size) (fun i ->
      Array.sub a (i * size) (min size (n - (i * size))))

(* {1 Preload, through the service} *)

let preload_timeout = 30.

let run_windowed (c : Cluster.t) ~what ~window jobs =
  let n = Array.length jobs in
  let next = ref 0 and finished = ref 0 in
  let rec launch () =
    if !next < n then begin
      let i = !next in
      incr next;
      jobs.(i) (fun () -> incr finished; launch ())
    end
  in
  for _ = 1 to window do launch () done;
  Cluster.wait c.loop ~what ~secs:120. (fun () -> !finished = n)

let create_events (c : Cluster.t) n =
  let ids = Array.make n Event_id.none in
  run_windowed c ~what:"preload creates" ~window:64
    (Array.init n (fun i k ->
         Client.create_event c.client ~timeout:preload_timeout (function
           | Ok e -> ids.(i) <- e; k ()
           | Error e -> failwith ("preload create_event: " ^ Error.to_string e))));
  ids

let assign_pairs (c : Cluster.t) acked pairs =
  run_windowed c ~what:"preload assigns" ~window:4
    (Array.of_list
       (List.map
          (fun batch k ->
            let specs = Array.to_list (Array.map (fun (a, b) -> Order.must_before a b) batch) in
            Client.assign_order c.client ~timeout:preload_timeout specs (function
              | Ok outs ->
                List.iter
                  (function
                    | Order.Applied | Order.Already -> ()
                    | Order.Reversed -> failwith "preload: must edge reversed")
                  outs;
                Array.iter (Vec.push acked) batch;
                k ()
              | Error e -> failwith ("preload assign_order: " ^ Error.to_string e)))
          (chunks 1000 pairs)))

let shape e = (Engine.live_events e, Engine.edges e, Engine.epoch e)

(* Top the log up with [create_event]s to the first sequence number at
   least 1.5 snapshot intervals in that sits half an interval past a
   snapshot (snapshots fall every 1024 commands).  The restart measured at
   the end of the run then loads a snapshot and replays 512 commands in
   every run. *)
let top_up ctx =
  let c = ctx.c in
  let applied = Chain.Replica.last_applied c.nodes.(0).replica in
  let target = ref (snapshot_every + (snapshot_every / 2)) in
  while !target < applied do target := !target + snapshot_every done;
  ignore (create_events c (!target - applied));
  Cluster.quiesce c;
  ctx.base_live <- Engine.live_events !(c.nodes.(2).engine)

type inputs = { wide : (int * int) array; mixed : ((int * int) * (int * int)) array }

let preload wl (c : Cluster.t) inputs =
  let blank =
    { wl; c; sessions = [||]; vertices = [||]; acked = Vec.create ~dummy:(Event_id.none, Event_id.none) ();
      released = Hashtbl.create 1024; maybe_released = Hashtbl.create 16;
      answers = Vec.create ~dummy:(Event_id.none, Event_id.none, Order.Same) ();
      bad_release = 0; base_live = 0 }
  in
  let ctx =
    match wl with
    | Write_chain -> { blank with sessions = Array.init write_sessions (fun _ -> new_session ()) }
    | Read_wide ->
      let vertices = create_events c read_wide_n in
      assign_pairs c blank.acked
        (Array.map (fun (u, v) -> (vertices.(u), vertices.(v))) inputs.wide);
      { blank with vertices }
    | Mixed_rw ->
      let ids = create_events c (mixed_sessions * mixed_chain_len) in
      let id (s, i) = ids.((s * mixed_chain_len) + i) in
      assign_pairs c blank.acked (Array.map (fun (a, b) -> (id a, id b)) inputs.mixed);
      let sessions =
        Array.init mixed_sessions (fun s ->
            let ss = new_session () in
            for i = 0 to mixed_chain_len - 1 do Vec.push ss.events (id (s, i)) done;
            ss.prev <- Some (id (s, mixed_chain_len - 1));
            ss)
      in
      { blank with sessions }
  in
  top_up ctx;
  ctx

(* {1 Timed phases} *)

let ns_of_s s = int_of_float (s *. 1e9)

(* cpu_us_per_op is the CPU time per op over the closed loop's first
   [cpu_windows] windows of [window_ops] acknowledged ops each.  They count
   ops, not seconds: every replica keeps each applied command in memory, so
   the GC's cost per op grows with the ops already served, and a span fixed
   in time would reach further along in a faster run.  The sizes let even a
   run on a contended host finish all the windows within 15 s. *)
let cpu_windows = 10
let window_ops = function Write_chain -> 1000 | Read_wide -> 6000 | Mixed_rw -> 1500

let drain ctx ph =
  Cluster.wait ctx.c.loop ~what:("phase " ^ ph.name ^ " to drain") ~secs:60. (fun () ->
      ph.pending = 0)

(* Time the hypervisor ran something else while this VM's CPUs wanted to
   run, in USER_HZ ticks summed over CPUs (0 without /proc/stat). *)
let host_steal () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    (try Scanf.sscanf line "cpu %_d %_d %_d %_d %_d %_d %_d %d" (fun st -> st) with _ -> 0)

(* Closed loop: [outstanding] users, each sending its next request as soon
   as the previous one completes.  A completion queues its user and issues
   unless an issue is already running further up the stack, so cache hits
   answered synchronously cannot recurse.  The process's CPU time is read
   into [ph.marks] each time another window of ops has been acknowledged. *)
let closed_loop ctx ph gens ~seconds =
  let ready = Queue.create () in
  for u = 0 to outstanding - 1 do Queue.add u ready done;
  let t0 = Tracer.now_ns () in
  ph.start_ns <- t0;
  ph.end_ns <- t0 + ns_of_s seconds;
  ph.marks <- [ (0, Cluster.cpu_ns ()) ];
  let issuing = ref false in
  let rec issue_ready () =
    if not !issuing then begin
      issuing := true;
      Tracer.span ~layer:Tracer.loadgen "loadgen.issue" (fun () ->
          while not (Queue.is_empty ready) do
            let u = Queue.pop ready in
            let now = Tracer.now_ns () in
            if now < ph.end_ns then
              issue ctx ph (next_op ctx.wl gens.(u) ~user:(Some u)) ~due:now (fun () ->
                  Queue.add u ready;
                  issue_ready ())
          done);
      issuing := false
    end
  in
  issue_ready ();
  while Tracer.now_ns () < ph.end_ns do
    Cluster.run_once ctx.c.loop ~max_wait:0.05;
    match ph.marks with
    | (last, _) :: _
      when ph.ok_in_window - last >= window_ops ctx.wl
           && List.length ph.marks <= cpu_windows ->
      ph.marks <- (ph.ok_in_window, Cluster.cpu_ns ()) :: ph.marks
    | _ -> ()
  done;
  let t1 = Tracer.now_ns () in
  (t0, t1)

(* Open loop: Poisson arrivals at [rate], each timed from when it was due. *)
let open_loop ctx ph g ~rate ~seconds =
  let mean_gap = 1e9 /. rate in
  let t0 = Tracer.now_ns () in
  ph.start_ns <- t0;
  ph.end_ns <- t0 + ns_of_s seconds;
  let next_due = ref (float t0 +. Rng.exponential g.rng ~mean:mean_gap) in
  let next_sample = ref t0 in
  while Tracer.now_ns () < ph.end_ns do
    let wait_s = (!next_due -. float (Tracer.now_ns ())) /. 1e9 in
    Cluster.run_once ctx.c.loop ~max_wait:(Float.max 0. (Float.min 0.05 wait_s));
    let now = Tracer.now_ns () in
    while !next_due <= float now && !next_due < float ph.end_ns do
      let due = int_of_float !next_due in
      Samples.add ph.late (now - due);
      ph.arrivals <- ph.arrivals + 1;
      issue ctx ph (next_op ctx.wl g ~user:None) ~due ignore;
      next_due := !next_due +. Rng.exponential g.rng ~mean:mean_gap
    done;
    if now >= !next_sample then begin
      Samples.add ph.backlog ph.pending;
      next_sample := !next_sample + 100_000_000
    end
  done

let quantile_us s q =
  let v = Samples.quantile s q in
  if v = failed_latency then call_timeout *. 1e6 else float v /. 1e3

(* Acknowledged ops per second in each one-second window of a phase:
   closed_ops_s is their median, so a burst of host noise moves one
   window, not the run. *)
let window_ns = 1_000_000_000

let windowed_rate ph =
  let w = Array.make (max 1 ((ph.end_ns - ph.start_ns) / window_ns)) 0 in
  for i = 0 to Samples.length ph.ok_at - 1 do
    let j = (ph.ok_at.a.(i) - ph.start_ns) / window_ns in
    if j >= 0 && j < Array.length w then w.(j) <- w.(j) + 1
  done;
  List.map (fun n -> float n /. (float window_ns /. 1e9)) (Array.to_list w)

(* CPU time (every domain) per acknowledged op in each window between
   consecutive marks of the closed loop, in us, oldest first. *)
let windowed_cpu_us ph =
  let rec go acc = function
    | (n1, c1) :: ((n0, c0) :: _ as older) ->
      go ((float (c1 - c0) /. 1e3 /. float (n1 - n0)) :: acc) older
    | _ -> acc
  in
  go [] ph.marks

(* CPU time per acknowledged op from the first mark to the last, in us. *)
let cpu_us_per_op ph =
  match (ph.marks, List.rev ph.marks) with
  | (n1, c1) :: _, (n0, c0) :: _ when n1 > n0 -> float (c1 - c0) /. 1e3 /. float (n1 - n0)
  | _ -> 0.

(* The open loop is invalid when the generator ran late or the backlog
   grew: its latencies then measure the generator, not the server. *)
let open_validity ph =
  let late_p99 = quantile_us ph.late 0.99 in
  let b = Array.sub ph.backlog.Samples.a 0 (Samples.length ph.backlog) in
  let q = Array.length b / 4 in
  let mean l = if l = [||] then 0. else float (Array.fold_left ( + ) 0 l) /. float (Array.length l) in
  let first = mean (Array.sub b 0 q) and last = mean (Array.sub b (Array.length b - q) q) in
  let growing = last > (4. *. first) +. 64. in
  (late_p99, growing, first, last)

(* {1 Output checks} *)

let query_e (c : Cluster.t) pairs =
  let r = ref None in
  Client.query_order_e c.client ~timeout:preload_timeout pairs (fun x -> r := Some x);
  Cluster.wait c.loop ~what:"a check query" (fun () -> !r <> None);
  Option.get !r

let relation_name = function
  | Order.Before -> "Before" | Order.After -> "After"
  | Order.Concurrent -> "Concurrent" | Order.Same -> "Same"

let strided n limit = List.init (min n limit) (fun i -> i * n / min n limit)

let check_outputs ctx inputs ~failed =
  let c = ctx.c in
  Cluster.quiesce c;
  (* the replicas agree *)
  let s0 = shape !(c.nodes.(0).engine) in
  Array.iter
    (fun (n : Cluster.node) ->
      check (shape !(n.engine) = s0)
        (Printf.sprintf "replica %d disagrees with the head" n.Cluster.addr))
    c.nodes;
  (* every acknowledged must_before answers Before at the tail, unless GC
     reclaimed its source, which the tail must then reject as stale; a
     source whose release failed may have gone either way *)
  let live = ref [] and collected = ref [] and maybe = ref [] in
  Vec.iter
    (fun (a, b) ->
      if ctx.wl <> Write_chain then live := (a, b) :: !live
      else if Hashtbl.mem ctx.released a then collected := (a, b) :: !collected
      else if Hashtbl.mem ctx.maybe_released a then maybe := (a, b) :: !maybe
      else live := (a, b) :: !live)
    ctx.acked;
  List.iter
    (fun pair ->
      match query_e c [ pair ] with
      | Ok ([ Order.Before ], _) | Error (Error.Rejected (Order.Unknown_event _)) -> ()
      | Ok _ -> raise (Check_failed "an acknowledged must_before is not Before")
      | Error e -> raise (Check_failed ("re-query failed: " ^ Error.to_string e)))
    !maybe;
  List.iter
    (fun batch ->
      match query_e c (Array.to_list batch) with
      | Ok (rels, _) ->
        List.iter (fun r -> check (r = Order.Before) "an acknowledged must_before is not Before") rels
      | Error e -> raise (Check_failed ("re-query failed: " ^ Error.to_string e)))
    (chunks 1000 (Array.of_list !live));
  let collected = Array.of_list !collected in
  List.iter
    (fun i ->
      match query_e c [ collected.(i) ] with
      | Error (Error.Rejected (Order.Unknown_event _)) -> ()
      | Ok _ | Error _ -> raise (Check_failed "a collected event still answers"))
    (strided (Array.length collected) 200);
  check (ctx.bad_release = 0) "release_ref collected an unexpected number of events";
  (* set-up ends at configuration 3: the head alone, then two joins *)
  check ((Chain.Replica.config c.nodes.(2).replica).Chain.version = 3)
    "the chain was reconfigured during the run";
  (if ctx.wl = Write_chain && failed = 0 then
     (* each session holds its head, plus the event of an unfinished step
        (and that step's edge once assigned) *)
     let count f = Array.fold_left (fun n ss -> if f ss then n + 1 else n) 0 ctx.sessions in
     let heads = count (fun ss -> ss.prev <> None) in
     let open_steps = count (fun ss -> ss.stage <> Need_create) in
     let open_edges = count (fun ss -> match ss.stage with Need_release _ -> true | _ -> false) in
     let live, edges, _ = s0 in
     check (live = ctx.base_live + heads + open_steps && edges = open_edges)
       "write_chain: GC left more than each session's head");
  (* sampled answers match an oracle *)
  let n = Vec.length ctx.answers in
  let sample = strided n 2000 in
  (match ctx.wl with
   | Write_chain -> ()
   | Read_wide ->
     let oracle = Engine.create () in
     let ids = Array.init read_wide_n (fun _ -> Engine.create_event oracle) in
     List.iter
       (fun batch ->
         match Engine.assign_order oracle (Array.to_list (Array.map (fun (u, v) -> Order.must_before ids.(u) ids.(v)) batch)) with
         | Ok _ -> ()
         | Error _ -> failwith "oracle: assign_order failed")
       (chunks 1000 inputs.wide);
     let vertex = Hashtbl.create read_wide_n in
     Array.iteri (fun i e -> Hashtbl.replace vertex e i) ctx.vertices;
     List.iter
       (fun i ->
         let a, b, rel = Vec.get ctx.answers i in
         let u = Hashtbl.find vertex a and v = Hashtbl.find vertex b in
         match Engine.query_order oracle [ (ids.(u), ids.(v)) ] with
         | Ok [ r ] ->
           check (r = rel)
             (Printf.sprintf "read_wide answer %s differs from the oracle's %s"
                (relation_name rel) (relation_name r))
         | _ -> failwith "oracle: query failed")
       sample
   | Mixed_rw ->
     (* edges only ever enter fresh events, so every answered relation is
        final: the tail's engine must still give it *)
     let tail = !(c.nodes.(2).engine) in
     List.iter
       (fun i ->
         let a, b, rel = Vec.get ctx.answers i in
         match Engine.query_order tail [ (a, b) ] with
         | Ok [ r ] -> check (r = rel) "mixed_rw answer changed"
         | _ -> raise (Check_failed "mixed_rw: answered pair is no longer live"))
       sample)

(* {1 Engine replay (traced run)} *)

let engine_replay ctx =
  let n = Vec.length ctx.answers in
  let pairs = List.map (fun i -> let a, b, _ = Vec.get ctx.answers i in (a, b)) (strided n 20_000) in
  let np = List.length pairs in
  if np = 0 then (0., 0., 0., 0.)
  else begin
    let e = !(ctx.c.nodes.(2).engine) in
    let st0 = Engine.stats e in
    let t0 = Tracer.now_ns () in
    List.iter (fun p -> ignore (Engine.query_order e [ p ])) pairs;
    let live_ns = float (Tracer.now_ns () - t0) /. float np in
    let visited = float ((Engine.stats e).Engine.visited - st0.Engine.visited) /. float np in
    let v = Engine.publish e in
    let t0 = Tracer.now_ns () in
    List.iter (fun (a, b) -> ignore (Engine.View.query v a b)) pairs;
    let view_ns = float (Tracer.now_ns () - t0) /. float np in
    let decided =
      List.fold_left
        (fun acc (a, b) ->
          match (Engine.View.rank v a, Engine.View.rank v b) with
          | Some ra, Some rb when ra = rb -> acc + 1
          | Some ra, Some rb ->
            let lo, hi = if ra < rb then (a, b) else (b, a) in
            if Engine.View.label_reachable v lo hi <> None then acc + 1 else acc
          | _ -> acc + 1)
        0 pairs
    in
    (live_ns, view_ns, float decided /. float np, visited)
  end

(* {1 Reporting} *)

let num x = if Float.is_finite x then Printf.sprintf "%.12g" x else "0"

let rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> float kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> 0.
  in
  let r = find () in
  close_in ic;
  r

let median_int l = Samples.median_float (List.map float l)

let div a b = if b = 0. then 0. else a /. b

let counter scope name = Kronos_metrics.counter (Kronos_metrics.scope scope) name
let proxy_retries = counter "proxy" "retries_total"
let publishes = counter "query_pool" "view_publish_total"
let offloaded = counter "query_pool" "offloaded_total"

let tcp_totals (c : Cluster.t) =
  let rts = c.client_tcp :: Array.to_list (Array.map (fun n -> n.Cluster.tcp) c.nodes) in
  (List.fold_left (fun a t -> a + Tcp.dropped t) 0 rts, List.fold_left (fun a t -> a + Tcp.reconnects t) 0 rts)

let say fmt = Printf.ksprintf print_endline fmt

(* {1 Traced closed loop} *)

(* Counter deltas over the traced phase, next to the spans. *)
type traced = {
  ph : phase;
  wall_ns : int;
  retries : int;
  epoch_retries : int;
  hit_rate : float;
  view_publishes : int;
  offloads : int;
  apply_ns : string -> float;  (** mean loop-thread apply time of an op *)
  dropped : int;
  reconnects : int;
}

let traced_closed_loop ctx gens ~seconds ~dump =
  let c = ctx.c in
  let value = Kronos_metrics.Counter.value in
  let applies () =
    List.map
      (fun op ->
        let h = Wrap.apply_hist op in
        (op, (Kronos_metrics.Histogram.sum h, Kronos_metrics.Histogram.count h)))
      [ "assign_order"; "create_event"; "release_ref" ]
  in
  let ph = new_phase "closed-traced" in
  let retries0 = value proxy_retries and epoch0 = Client.epoch_retries c.client in
  let cache0 = Client.cache_stats c.client and a0 = applies () in
  let pub0 = value publishes and off0 = value offloaded and d0, r0 = tcp_totals c in
  Wrap.reset ();
  Tracer.start ();
  let t0, t1 = closed_loop ctx ph gens ~seconds in
  Tracer.stop ();
  let d1, r1 = tcp_totals c and a1 = applies () and cache1 = Client.cache_stats c.client in
  let retries = value proxy_retries - retries0 and epoch_retries = Client.epoch_retries c.client - epoch0 in
  let view_publishes = value publishes - pub0 and offloads = value offloaded - off0 in
  (* drain first: the last requests' latencies must not include the dump *)
  drain ctx ph;
  Tracer.dump dump;
  let hit_rate =
    match (cache0, cache1) with
    | Some a, Some b ->
      let hits = b.Order_cache.stat_hits - a.Order_cache.stat_hits in
      let misses = b.Order_cache.stat_misses - a.Order_cache.stat_misses in
      div (float hits) (float (hits + misses))
    | _ -> 0.
  in
  let apply_ns op =
    let s0, n0 = List.assoc op a0 and s1, n1 = List.assoc op a1 in
    div ((s1 -. s0) *. 1e9) (float (n1 - n0))
  in
  { ph; wall_ns = t1 - t0; retries; epoch_retries; hit_rate; view_publishes; offloads;
    apply_ns; dropped = d1 - d0; reconnects = r1 - r0 }

let latency_tolerance = 0.05

(* The per-layer metrics of a traced run; also prints the layer split and
   runs the stage-sum checks. *)
let layer_metrics t ~closed_ops_s ~replay ~recovery_read_ms ~recovery_replay_ms
    ~late_p99 ~offered =
  let ops = float t.ph.done_in_window and writes = float t.ph.writes_in_window in
  let per_op x = div (float x) ops and per_write x = div (float x) writes in
  let self l = Tracer.self_ns.(l) in
  let per_name name = div (float (Tracer.self_of name)) (float (Tracer.count name)) in
  let us q s = float (Samples.quantile s q) /. 1e3 in
  let stage_sum = div (float (Tracer.total_self ())) (float t.wall_ns) in
  (* Little's law: with [outstanding] requests always in flight, the
     client-observed latency of an op is [outstanding] times the loop
     time per op.  The latencies come from the load generator's clock,
     not from the spans, so this can fail where [stage_sum] cannot. *)
  let lat_sum = ref 0 and lat_n = ref 0 in
  for i = 0 to Samples.length t.ph.lat - 1 do
    let v = t.ph.lat.a.(i) in
    if v <> failed_latency then begin lat_sum := !lat_sum + v; incr lat_n end
  done;
  let mean_lat = div (float !lat_sum) (float !lat_n) in
  let vs_latency = div (float (outstanding * Tracer.total_self ()) /. ops) mean_lat in
  let traced_ops_s = float t.ph.ok_in_window /. (float t.wall_ns /. 1e9) in
  let overhead = 1. -. div traced_ops_s closed_ops_s in
  let live_ns, view_ns, decided, visited = replay in
  say "traced closed loop: %d ops, %d writes, %.1f ops/s traced vs %.1f untraced (overhead %.1f%%)"
    t.ph.done_in_window t.ph.writes_in_window traced_ops_s closed_ops_s (100. *. overhead);
  say "stage sum: layers' self time + idle = %.2f%% of traced wall time (tolerance 3%%)"
    (100. *. stage_sum);
  say "stage sum per op x %d outstanding = %.2f%% of the mean client-observed latency, %.1f us over %d ops (tolerance %.0f%%)"
    outstanding (100. *. vs_latency) (mean_lat /. 1e3) !lat_n (100. *. latency_tolerance);
  Array.iteri (fun l name -> say "  %-20s %10.0f ns/op" name (per_op (self l))) Tracer.layer_names;
  check (Float.abs (1. -. stage_sum) <= 0.03) "stage-sum check: layers do not add up to wall time";
  check (Float.abs (1. -. vs_latency) <= latency_tolerance)
    "stage-sum check: layers do not add up to client-observed latency";
  [ ("client.call_ns_per_op", per_op (self Tracer.client), "ns");
    ("client.cache_hit_rate", t.hit_rate, "ratio");
    ("client.retries_per_op", per_op t.retries, "ratio");
    ("client.epoch_retries_per_op", per_op t.epoch_retries, "ratio");
    ("wire.encode_ns_per_msg", per_name "encode", "ns");
    ("wire.decode_ns_per_msg", per_name "decode", "ns");
    ("wire.msgs_per_op", per_op (Tracer.count "encode"), "count");
    ("wire.bytes_per_op", per_op !Wrap.enc_bytes, "B");
    ("wire.self_ns_per_op", per_op (self Tracer.wire), "ns");
    ("transport.loop_iters_per_op", per_op (Tracer.count Tracer.loop_name), "count");
    ("transport.loop_self_ns_per_op", per_op (self Tracer.transport), "ns");
    ("transport.idle_ns_per_op", per_op (self Tracer.idle), "ns");
    ("transport.dropped", float t.dropped, "count");
    ("transport.reconnects", float t.reconnects, "count");
    ("replication.head_self_ns_per_write", per_write (self Tracer.head), "ns");
    ("replication.mid_self_ns_per_write", per_write (self Tracer.mid), "ns");
    ("replication.tail_self_ns_per_write", per_write (self Tracer.tail), "ns");
    ("replication.control_ns_per_op", per_op (self Tracer.control), "ns");
    ("replication.msgs_per_write", per_write !Wrap.repl_msgs, "count");
    ("replication.hop_us_p50", us 0.5 Wrap.hop, "us");
    ("replication.hop_us_p99", us 0.99 Wrap.hop, "us");
    ("engine.assign_ns", t.apply_ns "assign_order", "ns");
    ("engine.create_ns", t.apply_ns "create_event", "ns");
    ("engine.release_ns", t.apply_ns "release_ref", "ns");
    ("engine.query_ns", live_ns, "ns");
    ("engine.view_query_ns", view_ns, "ns");
    ("engine.label_decided_frac", decided, "ratio");
    ("engine.bfs_visited_per_query", visited, "count");
    ("engine.self_ns_per_op", per_op (self Tracer.engine), "ns");
    ("query_pool.wait_us_p50", us 0.5 Wrap.pool_wait, "us");
    ("query_pool.wait_us_p99", us 0.99 Wrap.pool_wait, "us");
    ("query_pool.publishes_per_write", per_write t.view_publishes, "count");
    ("query_pool.offloaded_frac", div (float t.offloads) (float !Wrap.tail_reads), "ratio");
    ("query_pool.self_ns_per_op", per_op (self Tracer.query_pool), "ns");
    ("durability.fsync_us_p50", us 0.5 Wrap.fsync, "us");
    ("durability.fsync_us_p99", us 0.99 Wrap.fsync, "us");
    ("durability.fsyncs_per_write", per_write (Samples.length Wrap.fsync), "count");
    ("durability.wal_bytes_per_write", per_write !Wrap.wal_bytes, "B");
    ("durability.snapshot_bytes_per_write", per_write !Wrap.snap_bytes, "B");
    ("durability.snapshot_stall_ms_max", float !Wrap.snap_stall_max /. 1e6, "ms");
    ("durability.recovery_read_ms", recovery_read_ms, "ms");
    ("durability.recovery_replay_ms", recovery_replay_ms, "ms");
    ("durability.self_ns_per_op", per_op (self Tracer.durability), "ns");
    ("loadgen.late_p99_us", late_p99, "us");
    ("loadgen.offered_ops_s", offered, "ops/s");
    ("loadgen.self_ns_per_op", per_op (self Tracer.loadgen), "ns");
    ("trace.closed_ops_s", traced_ops_s, "ops/s");
    ("trace.overhead_frac", overhead, "ratio");
    ("trace.wall_ns_per_op", per_op t.wall_ns, "ns");
    ("trace.stage_sum_ratio", stage_sum, "ratio");
    ("trace.stage_vs_latency_ratio", vs_latency, "ratio") ]

(* {1 Restart probes} *)

(* [--restart-from DIR]: recover a captured tail directory in this fresh,
   one-domain process — the way a restarted kronosd does — and print one
   line per recovery: wall ns, CPU ns, read ns, replay ns, applied, live,
   edges, epoch. *)
let restart_probe dir =
  let loop = Kronos_transport.Event_loop.create () in
  for _ = 1 to restarts_per_probe do
    Unix.sleepf restart_gap_s;
    Gc.full_major ();
    let dt, cpu, read, replay, e, applied = Cluster.restart_tail ~loop ~dir in
    let live, edges, epoch = shape e in
    Printf.printf "%d %d %d %d %d %d %d %Ld\n%!" dt cpu read replay applied live edges epoch
  done

(* Run a probe while the chain's loop keeps turning (a stalled loop would
   miss the coordinator's pings), and check every recovery against the
   captured state. *)
let run_probe (c : Cluster.t) ~dir ~seq ~shape:expected =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "--restart-from"; dir |] Unix.stdin w Unix.stderr in
  Unix.close w;
  let status = ref None in
  (try
     Cluster.wait c.loop ~what:"a restart probe" ~secs:120. (fun () ->
         match Unix.waitpid [ Unix.WNOHANG ] pid with
         | 0, _ -> false
         | _, st -> status := Some st; true)
   with e ->
     Unix.kill pid Sys.sigkill;
     ignore (Unix.waitpid [] pid);
     Unix.close r;
     raise e);
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  check (!status = Some (Unix.WEXITED 0)) "a restart probe failed";
  List.filter_map
    (fun line ->
      if line = "" then None
      else
        Scanf.sscanf line "%d %d %d %d %d %d %d %Ld"
          (fun dt cpu read replay applied live edges epoch ->
            check (applied = seq && (live, edges, epoch) = expected)
              "a restarted tail did not recover the captured state";
            Some (dt, cpu, read, replay)))
    (String.split_on_char '\n' out)

(* {1 Main} *)

let usage = "perfbench --workload write_chain|read_wide|mixed_rw --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let restart_from = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME traffic mix");
      ("--restart-from", Arg.Set_string restart_from, "DIR (internal) time recoveries of DIR");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !restart_from <> "" then begin
    restart_probe !restart_from;
    exit 0
  end;
  let wl =
    match List.assoc_opt !workload workloads with
    | Some wl when !seconds >= 1 && (!trace = 0 || !trace = 1) -> wl
    | _ -> prerr_endline usage; exit 2
  in
  let traced = !trace = 1 in
  let root = ".perfbench-run" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let dir_of i = Filename.concat root (Printf.sprintf "%s-%d-%d-%d" !workload !seed (Unix.getpid ()) i) in
  let rng = Rng.create ~seed:(Int64.of_int !seed) in
  let inputs =
    { wide = (if wl = Read_wide then wide_edges (Rng.split rng) else [||]);
      mixed = (if wl = Mixed_rw then mixed_edges (Rng.split rng) else [||]) }
  in
  let live = ref None in
  let cleanup () = Option.iter (fun (ctx : ctx) -> Cluster.teardown ctx.c) !live; live := None in
  let result =
    try
      (* set-up: [setups] full set-ups, each timed in wall and CPU time;
         the last one is used.  Each starts from a compacted heap, so the
         garbage of the chains torn down before it does not move rss_mb. *)
      let setup_times =
        List.init setups (fun i ->
            cleanup ();
            Gc.compact ();
            let t0 = Tracer.now_ns () and c0 = Cluster.cpu_ns () in
            let c =
              Cluster.setup ~dir:(dir_of i)
                ~cache_capacity:(if wl = Read_wide then 0 else 65536)
                ~request_timeout
            in
            let ctx = preload wl c inputs in
            live := Some ctx;
            (float (Tracer.now_ns () - t0) /. 1e9, float (Cluster.cpu_ns () - c0) /. 1e9))
      in
      let ctx = Option.get !live in
      let c = ctx.c in
      let setup_walls = List.map fst setup_times and setup_cpus = List.map snd setup_times in
      let setup_s = Samples.median_float setup_cpus in
      let setup_wall_s = Samples.median_float setup_walls in
      (* peak memory of set-up, before any timed work: the chain keeps every
         applied command in memory, so a later peak would follow how many
         ops the run's throughput let through *)
      let rss = rss_mb () in
      (* restart probes over the tail as captured now, spread over the run *)
      let probe =
        let seq = Chain.Replica.last_applied c.nodes.(2).replica in
        let shape = shape !(c.nodes.(2).engine) in
        let dir = Cluster.capture_tail c in
        fun () -> run_probe c ~dir ~seq ~shape
      in
      let recs = ref (probe ()) in
      let secs_list l = String.concat " " (List.map (Printf.sprintf "%.4f") l) in
      say "perfbench %s seed=%d seconds=%d trace=%d" !workload !seed !seconds !trace;
      say "setup_s %.4f s CPU (median of %d: %s); wall %.4f s (%s)" setup_s setups
        (secs_list setup_cpus) setup_wall_s (secs_list setup_walls);
      (* start the timed phases from the same heap state in every run: the
         discarded set-ups leave a run-dependent amount of garbage behind *)
      Gc.compact ();
      (* warm-up, untimed *)
      let warm = new_phase "warmup" in
      ignore (closed_loop ctx warm (Array.init outstanding (fun _ -> new_gen rng)) ~seconds:warmup_s);
      drain ctx warm;
      let d0, r0 = tcp_totals c and retries0 = Kronos_metrics.Counter.value proxy_retries in
      (* open loop *)
      (* untraced, the bounded closed loop gets three quarters of the run;
         traced, open, closed and closed-traced get a third each *)
      let secs = float !seconds in
      let open_s, closed_s = if traced then (secs /. 3., secs /. 3.) else (secs /. 4., 3. *. secs /. 4.) in
      let ph_open = new_phase "open" in
      let rate = open_rate wl in
      open_loop ctx ph_open (new_gen rng) ~rate ~seconds:open_s;
      drain ctx ph_open;
      let late_p99, growing, b_first, b_last = open_validity ph_open in
      recs := !recs @ probe ();
      let offered = float ph_open.arrivals /. open_s in
      (* closed loop, untraced *)
      let ph_closed = new_phase "closed" in
      let steal0 = host_steal () in
      let t0, t1 = closed_loop ctx ph_closed (Array.init outstanding (fun _ -> new_gen rng)) ~seconds:closed_s in
      drain ctx ph_closed;
      let closed_rates = windowed_rate ph_closed in
      let closed_ops_s = Samples.median_float closed_rates in
      let closed_cpu = windowed_cpu_us ph_closed in
      let cpu_us_per_op = cpu_us_per_op ph_closed in
      let steal_frac =
        float (host_steal () - steal0)
        /. (float (100 * Domain.recommended_domain_count ()) *. (float (t1 - t0) /. 1e9))
      in
      (* closed loop, traced *)
      let traced_run =
        if not traced then None
        else
          Some
            (traced_closed_loop ctx (Array.init outstanding (fun _ -> new_gen rng))
               ~seconds:closed_s
               ~dump:(Filename.concat root (Printf.sprintf "trace-%s-%d.tsv" !workload !seed)))
      in
      let d1, r1 = tcp_totals c and retries1 = Kronos_metrics.Counter.value proxy_retries in
      let phases = [ warm; ph_open; ph_closed ] @ Option.to_list (Option.map (fun t -> t.ph) traced_run) in
      let attempted = List.fold_left (fun a p -> a + p.attempted) 0 phases in
      let failed = List.fold_left (fun a p -> a + p.failed) 0 phases in
      (* output checks *)
      check_outputs ctx inputs ~failed;
      let replay = if traced then engine_replay ctx else (0., 0., 0., 0.) in
      (* the two read mixes must take the engine's two paths *)
      (let _, _, decided, _ = replay in
       match wl with
       | Mixed_rw when traced ->
         check (decided >= 0.9) "mixed_rw: labels decided fewer than 90% of probes"
       | Read_wide when traced ->
         check (decided <= 0.1) "read_wide: labels decided more than 10% of probes"
       | _ -> ());
      let recs = !recs @ probe () in
      let restart_wall_s = float (List.fold_left (fun m (d, _, _, _) -> min m d) max_int recs) /. 1e9 in
      let restart_cpu_s = median_int (List.map (fun (_, c, _, _) -> c) recs) /. 1e9 in
      let recovery_read_ms = median_int (List.map (fun (_, _, r, _) -> r) recs) /. 1e6 in
      let recovery_replay_ms = median_int (List.map (fun (_, _, _, p) -> p) recs) /. 1e6 in
      let rss_end = rss_mb () in
      cleanup ();
      (* report *)
      List.iter
        (fun p ->
          say "phase %-13s attempted %d failed %d (fail_frac %.4f)" p.name p.attempted p.failed
            (div (float p.failed) (float p.attempted)))
        phases;
      let fail_frac = div (float failed) (float attempted) in
      say "fail_frac %.6f ratio (%d of %d)" fail_frac failed attempted;
      let timed_ops = attempted - warm.attempted in
      say "transport.dropped %d count, transport.reconnects %d count (timed phases)" (d1 - d0) (r1 - r0);
      say "client.retries_per_op %.6f ratio (timed phases)"
        (div (float (retries1 - retries0)) (float timed_ops));
      say "open loop: offered %.0f ops/s (target %.0f), %d arrivals" offered rate ph_open.arrivals;
      say "loadgen.late_p99_us %.1f us (bound %.0f); backlog first-quarter %.1f last-quarter %.1f" late_p99 late_bound_us b_first b_last;
      let open_p50 = quantile_us ph_open.lat 0.5 and open_p99 = quantile_us ph_open.lat 0.99 in
      let p99_of s = if Samples.length s = 0 then 0. else quantile_us s 0.99 in
      let open_read_p99 = p99_of ph_open.lat_read and open_write_p99 = p99_of ph_open.lat_write in
      say "open_p50_us %.1f us (n=%d)" open_p50 (Samples.length ph_open.lat);
      say "open_p99_us %.1f us (n=%d)" open_p99 (Samples.length ph_open.lat);
      say "open_read_p99_us %.1f us (n=%d)" open_read_p99 (Samples.length ph_open.lat_read);
      say "open_write_p99_us %.1f us (n=%d)" open_write_p99 (Samples.length ph_open.lat_write);
      say "closed_ops_s %.1f ops/s (median of %d one-second windows: %s; %d ops, %d outstanding)" closed_ops_s
        (List.length closed_rates) (String.concat " " (List.map (Printf.sprintf "%.0f") closed_rates))
        ph_closed.ok_in_window outstanding;
      say "cpu_us_per_op %.3f us (over %d windows of %d ops: %s)" cpu_us_per_op
        (List.length closed_cpu) (window_ops wl)
        (String.concat " " (List.map (Printf.sprintf "%.1f") closed_cpu));
      say "host steal during the closed loop: %.1f%% of the VM's CPU time (a contended host slows every figure)"
        (100. *. steal_frac);
      say "restart_cpu_s %.5f s (median of %d recoveries in 3 processes: %s; WAL suffix %d commands); wall: fastest %.5f s (%s)"
        restart_cpu_s (List.length recs)
        (String.concat " " (List.map (fun (_, c, _, _) -> Printf.sprintf "%.4f" (float c /. 1e9)) recs))
        (snapshot_every / 2) restart_wall_s
        (String.concat " " (List.map (fun (d, _, _, _) -> Printf.sprintf "%.4f" (float d /. 1e9)) recs));
      say "rss_mb %.1f MB (peak by the end of set-up; %.1f MB by the end of the run)" rss rss_end;
      let open_valid = late_p99 <= late_bound_us && not growing in
      if not open_valid then
        say "open loop INVALID (generator late or backlog growing): its latencies measure the \
             overloaded generator, not the server";
      let metrics =
        match traced_run with
        | None ->
          [ ("setup_s", setup_s, "s"); ("cpu_us_per_op", cpu_us_per_op, "us");
            ("rss_mb", rss, "MB") ]
        | Some t ->
          let m =
            layer_metrics t ~closed_ops_s ~replay ~recovery_read_ms ~recovery_replay_ms
              ~late_p99 ~offered
            @ [ ("process.rss_end_mb", rss_end, "MB");
                ("loadgen.open_valid", (if open_valid then 1. else 0.), "count");
                ("open.p50_us", open_p50, "us"); ("open.p99_us", open_p99, "us");
                ("open.read_p99_us", open_read_p99, "us");
                ("open.write_p99_us", open_write_p99, "us");
                ("fail_frac", fail_frac, "ratio");
                ("restart_cpu_s", restart_cpu_s, "s");
                ("wall.closed_ops_s", closed_ops_s, "ops/s");
                ("wall.setup_s", setup_wall_s, "s");
                ("wall.restart_s", restart_wall_s, "s") ]
          in
          List.iter (fun (n, v, u) -> say "%s %s %s" n (num v) u) m;
          m
      in
      Ok (attempted, failed, metrics)
    with
    | Check_failed msg -> cleanup (); Error (1, "check failed: " ^ msg)
    | e -> cleanup (); Error (2, Printexc.to_string e)
  in
  match result with
  | Error (code, msg) ->
    prerr_endline ("perfbench: " ^ msg);
    exit code
  | Ok (attempted, failed, metrics) ->
    let fields =
      List.map (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u) metrics
    in
    Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
      attempted failed (String.concat ", " fields)
