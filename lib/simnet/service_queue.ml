type t = {
  sim : Sim.t;
  queue : (float * (unit -> unit)) Queue.t;  (* cost, job *)
  mutable running : bool;
  mutable total_busy : float;
  mutable jobs : int;
}

let create sim =
  { sim; queue = Queue.create (); running = false; total_busy = 0.0; jobs = 0 }

let total_busy t = t.total_busy
let jobs t = t.jobs

let busy_until t = if t.running then Sim.now t.sim else neg_infinity

(* Serve jobs one at a time: a job runs when the server reaches it, then the
   server stays busy for the job's cost before taking the next one. *)
let rec pump t =
  if (not t.running) && not (Queue.is_empty t.queue) then begin
    t.running <- true;
    let cost, run = Queue.pop t.queue in
    run ();
    t.total_busy <- t.total_busy +. cost;
    ignore
      (Sim.schedule t.sim ~delay:cost (fun () ->
           t.running <- false;
           pump t))
  end

let submit_fixed t ~cost job =
  if cost < 0.0 then invalid_arg "Service_queue.submit_fixed: negative cost";
  t.jobs <- t.jobs + 1;
  Queue.push (cost, job) t.queue;
  pump t
