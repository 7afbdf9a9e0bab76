open Kronos
open Kronos_wire
module Event_loop = Kronos_transport.Event_loop

(* All instruments are registered here, at module load on the main domain:
   the registry's hash table is not synchronized, so domains must never
   cause a registration.  Each per-domain counter is written only by the
   domain that owns it; the loop thread owns the gauges.  Scrapes from the
   loop thread may read a worker's counter mid-increment and miss the
   latest tick — benign for monitoring. *)
module M = struct
  let scope = Kronos_metrics.scope "query_pool"
  let domains = Kronos_metrics.gauge scope "query_domains"
  let view_epoch = Kronos_metrics.gauge scope "view_epoch"
  let publishes = Kronos_metrics.counter scope "view_publish_total"
  let publish_seconds = Kronos_metrics.histogram scope "publish_seconds"
  let offloaded = Kronos_metrics.counter scope "offloaded_total"
  let declined = Kronos_metrics.counter scope "declined_total"

  let answered d =
    Kronos_metrics.counter scope
      ~labels:[ ("domain", string_of_int d) ]
      "answered_total"

  let queue_depth d =
    Kronos_metrics.gauge scope
      ~labels:[ ("domain", string_of_int d) ]
      "queue_depth"
end

type job = { j_req : Message.request; j_reply : string -> unit }

type worker = {
  w_index : int;
  w_mutex : Mutex.t;
  w_cond : Condition.t;
  w_queue : job Queue.t;
  w_answered : Kronos_metrics.Counter.t;
  w_depth : Kronos_metrics.Gauge.t;
  mutable w_submitted : int; (* loop thread only *)
  mutable w_completed : int; (* loop thread only *)
}

type t = {
  loop : Event_loop.t;
  workers : worker array;
  view : Engine.View.t option Atomic.t;
  mutable engine : (unit -> Engine.t) option; (* loop thread only *)
  mutable last_epoch : int64;                 (* loop thread only *)
  mutable publish_tick : int;                 (* loop thread only *)
  stopping : bool Atomic.t;
  mutable joined : bool;
  comp_mutex : Mutex.t;
  completions : (int * (string -> unit) * string) Queue.t;
  mutable handles : unit Domain.t list;
}

let domains t = Array.length t.workers

(* The read path, for workers over published views and for the
   synchronous [Server.apply] over the live one.  On a published view it
   is write-free on shared state: the view is immutable, the BFS scratch
   is domain-local ([Graph.Frozen]'s DLS), and no process-wide counter is
   touched except the worker's own [answered_total].  The one exception
   is [Query_proof]: the certify prover bumps its own counters, so
   concurrent provers may lose increments — monitoring noise, never a
   safety issue (documented in DESIGN.md §14). *)
let respond view (req : Message.request) =
  match req with
  | Message.Query_order { min_epoch = _; pairs } -> (
    (* answer at whatever epoch we have; the stamp lets the client
       detect staleness and escalate to the tail *)
    match Engine.View.query_order view pairs with
    | Ok rels -> Message.Orders { epoch = Engine.View.epoch view; rels }
    | Error err -> Message.Rejected err)
  | Message.Query_proof (e1, e2) -> (
    match Engine.View.query_order view [ (e1, e2) ] with
    | Error err -> Message.Rejected err
    | Ok [ relation ] ->
      let cert =
        match relation with
        | Order.Before ->
          Kronos_certify.Prover.prove view ~source:e1 ~target:e2
        | Order.After ->
          Kronos_certify.Prover.prove view ~source:e2 ~target:e1
        | Order.Concurrent | Order.Same -> None
      in
      Message.Proof_is { relation; cert }
    | Ok _ -> assert false (* one pair in, one relation out *))
  | Message.Create_event | Message.Acquire_ref _ | Message.Release_ref _
  | Message.Assign_order _ ->
    invalid_arg "Query_pool.respond: not a read"

let complete t w reply resp =
  Mutex.lock t.comp_mutex;
  Queue.add (w.w_index, reply, resp) t.completions;
  Mutex.unlock t.comp_mutex;
  Event_loop.notify t.loop

let rec worker_loop t w =
  Mutex.lock w.w_mutex;
  while Queue.is_empty w.w_queue && not (Atomic.get t.stopping) do
    Condition.wait w.w_cond w.w_mutex
  done;
  if Queue.is_empty w.w_queue then Mutex.unlock w.w_mutex (* stopping *)
  else begin
    let job = Queue.pop w.w_queue in
    Mutex.unlock w.w_mutex;
    let view =
      match Atomic.get t.view with
      | Some v -> v
      | None -> assert false (* offload publishes before enqueueing *)
    in
    Kronos_metrics.Counter.incr w.w_answered;
    complete t w job.j_reply
      (Message.encode_response (respond view job.j_req));
    worker_loop t w
  end

(* Loop-thread side. *)

let drain t () =
  let rec next () =
    Mutex.lock t.comp_mutex;
    let item =
      if Queue.is_empty t.completions then None else Some (Queue.pop t.completions)
    in
    Mutex.unlock t.comp_mutex;
    match item with
    | None -> ()
    | Some (wi, reply, resp) ->
      let w = t.workers.(wi) in
      w.w_completed <- w.w_completed + 1;
      Kronos_metrics.Gauge.set w.w_depth (w.w_submitted - w.w_completed);
      reply resp;
      next ()
  in
  next ()

let create ~loop ~domains () =
  let n = max 1 domains in
  let workers =
    Array.init n (fun i ->
        {
          w_index = i;
          w_mutex = Mutex.create ();
          w_cond = Condition.create ();
          w_queue = Queue.create ();
          w_answered = M.answered i;
          w_depth = M.queue_depth i;
          w_submitted = 0;
          w_completed = 0;
        })
  in
  let t =
    {
      loop;
      workers;
      view = Atomic.make None;
      engine = None;
      last_epoch = -1L;
      publish_tick = -1;
      stopping = Atomic.make false;
      joined = false;
      comp_mutex = Mutex.create ();
      completions = Queue.create ();
      handles = [];
    }
  in
  Kronos_metrics.Gauge.set M.domains n;
  Event_loop.on_notify loop (drain t);
  t.handles <-
    Array.to_list
      (Array.map (fun w -> Domain.spawn (fun () -> worker_loop t w)) workers);
  t

let attach t ~engine = t.engine <- Some engine

(* Timed: [publish_seconds] is what view publication costs the loop
   thread (a cached, no-change publish included). *)
let publish t engine =
  let v =
    if Kronos_metrics.enabled () then begin
      let t0 = Unix.gettimeofday () in
      let v = Engine.publish engine in
      Kronos_metrics.Histogram.observe M.publish_seconds
        (Unix.gettimeofday () -. t0);
      v
    end
    else Engine.publish engine
  in
  let e = Engine.View.epoch v in
  if e <> t.last_epoch then begin
    t.last_epoch <- e;
    Kronos_metrics.Counter.incr M.publishes;
    Kronos_metrics.Gauge.set M.view_epoch (Int64.to_int e)
  end;
  Atomic.set t.view (Some v)

let offload t ~client ~cmd ~reply =
  if Atomic.get t.stopping then false
  else
    match t.engine with
    | None -> false
    | Some engine -> (
      match Message.decode_request cmd with
      | exception Codec.Decode_error _ ->
        (* let the synchronous path produce the canonical rejection *)
        false
      | Message.Create_event | Message.Acquire_ref _ | Message.Release_ref _
      | Message.Assign_order _ ->
        Kronos_metrics.Counter.incr M.declined;
        false
      | (Message.Query_order _ | Message.Query_proof _) as req ->
        (* Publish at most once per event-loop iteration: a freeze
           copies the chunks holding every slot written since the last
           one, and re-freezing on every offloaded read would pay that
           per request instead of per iteration.  One view per tick is
           fresh enough — an ack must cross a select
           round before the client that received it can have a follow-up
           query dispatched, so every write acked before this iteration
           began is already in the engine we freeze here.  The one caller
           that can outrun that argument is an [`At_least] demand raced
           onto an already-ready connection: an explicit [min_epoch] above
           the published view's epoch forces a mid-tick re-publish (a
           no-op freeze when nothing actually changed), so a demanding
           query never observes this amortization. *)
        let tick = Event_loop.ticks t.loop in
        let behind_demand =
          match Atomic.get t.view with
          | None -> true
          | Some v -> (
            match req with
            | Message.Query_order { min_epoch; _ } ->
              Engine.View.epoch v < min_epoch
            | _ -> false)
        in
        if tick <> t.publish_tick || behind_demand then begin
          publish t (engine ());
          t.publish_tick <- tick
        end;
        let w = t.workers.(client mod Array.length t.workers) in
        w.w_submitted <- w.w_submitted + 1;
        Kronos_metrics.Gauge.set w.w_depth (w.w_submitted - w.w_completed);
        Kronos_metrics.Counter.incr M.offloaded;
        Mutex.lock w.w_mutex;
        Queue.add { j_req = req; j_reply = reply } w.w_queue;
        Condition.signal w.w_cond;
        Mutex.unlock w.w_mutex;
        true)

let stop t =
  if not t.joined then begin
    t.joined <- true;
    Atomic.set t.stopping true;
    Array.iter
      (fun w ->
        Mutex.lock w.w_mutex;
        Condition.broadcast w.w_cond;
        Mutex.unlock w.w_mutex)
      t.workers;
    List.iter Domain.join t.handles;
    t.handles <- [];
    (* deliver completions the workers produced while draining *)
    drain t ()
  end
