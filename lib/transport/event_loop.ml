module Heap = Kronos_simnet.Heap

type watcher = {
  mutable on_read : (unit -> unit) option;
  mutable on_write : (unit -> unit) option;
  mutable mask : int;  (* the interest registered with the epoll set *)
}

type timer = {
  mutable cancelled : bool;
  mutable action : unit -> unit;
  owner : t;
  mutable queued : bool;   (* in [owner]'s heap; [every] handles never are *)
}

and t = {
  heap : timer Heap.t;
  ep : Unix.file_descr;
  fds : (Unix.file_descr, watcher) Hashtbl.t;
  (* One wait's results: ready descriptors, their event masks, and the
     watcher each one had when the wait returned. *)
  ready_fds : Unix.file_descr array;
  ready_evs : int array;
  ready_ws : watcher array;
  mutable seq : int;
  (* Heap entries by state.  [cancel] only flags a timer, so a cancelled
     one stays in the heap until its deadline; once such [dead] entries
     outnumber the [live] ones the heap is rebuilt without them (see
     [purge]).  Every request timer a client acknowledges is cancelled
     long before it is due. *)
  mutable live : int;
  mutable dead : int;
  (* Cross-domain wakeup (DESIGN.md §14).  [notify] sets [pending], then
     writes a byte to [wake_w] only if it finds [parked] set; the loop
     sets [parked] before it blocks in [epoll_wait] and then reads
     [pending], waiting 0 s if it is set.  Each side sets its own flag
     before reading the other's, and atomics are sequentially consistent,
     so a notify either sees the loop parked and wakes it, or lands
     before the loop's read and keeps it from blocking.  The notifier
     that clears [parked] is the one that writes, so a park costs at
     most one byte. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  parked : bool Atomic.t;
  pending : bool Atomic.t;
  wake_buf : Bytes.t;
  mutable notify_callbacks : (unit -> unit) list;
  mutable ticks : int;
  deferred : (unit -> unit) Queue.t;
  finishing : (unit -> unit) Queue.t;
}

let batch = 256

let dead_watcher = { on_read = None; on_write = None; mask = 0 }

let create () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let ep = Epoll.create () in
  Epoll.set ep wake_r ~was:0 Epoll.readable;
  { heap = Heap.create (); ep; fds = Hashtbl.create 16;
    ready_fds = Array.make batch wake_r; ready_evs = Array.make batch 0;
    ready_ws = Array.make batch dead_watcher; seq = 0; live = 0; dead = 0;
    wake_r; wake_w; parked = Atomic.make false; pending = Atomic.make false;
    wake_buf = Bytes.create 64; notify_callbacks = []; ticks = 0;
    deferred = Queue.create (); finishing = Queue.create () }

let rec write_wake t =
  try ignore (Unix.write t.wake_w t.wake_buf 0 1) with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    (* pipe full: the loop is already guaranteed to wake *)
    ()
  | Unix.Unix_error (Unix.EINTR, _, _) ->
    (* [parked] is already cleared, so no other notify will write for
       us: the byte must land or the wakeup is lost *)
    write_wake t

let notify t =
  Atomic.set t.pending true;
  if Atomic.get t.parked && Atomic.compare_and_set t.parked true false then
    write_wake t

(* The pipe holds at most a byte per park (see [notify]); a byte left
   behind by an interrupted read only ends the next wait early. *)
let drain_wake t =
  try ignore (Unix.read t.wake_r t.wake_buf 0 (Bytes.length t.wake_buf)) with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* Clear [pending] before the callbacks run: a completion posted after the
   clear sets it again for the next pass, and one posted before it was
   queued before its notify, so the callbacks below take it. *)
let run_notified t =
  if Atomic.get t.pending then begin
    Atomic.set t.pending false;
    List.iter (fun f -> f ()) t.notify_callbacks
  end

let on_notify t f = t.notify_callbacks <- t.notify_callbacks @ [ f ]

let now _t = Unix.gettimeofday ()

let pending_timers t = t.live

let schedule t ~delay action =
  let timer = { cancelled = false; action; owner = t; queued = true } in
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  Heap.push t.heap ~time:(now t +. max 0.0 delay) ~seq:t.seq timer;
  timer

(* Rebuild the heap from its live entries, keeping each one's deadline and
   sequence number, so firing order is unchanged.  Run only once the dead
   outnumber the live, so the O(n log n) rebuild is paid for by the
   cancels since the last one, and the heap never holds more than about
   twice its live timers. *)
let purge t =
  let keep = ref [] in
  let rec drain () =
    match Heap.pop t.heap with
    | Some ((_, _, timer) as entry) ->
      if not timer.cancelled then keep := entry :: !keep;
      drain ()
    | None -> ()
  in
  drain ();
  List.iter
    (fun (time, seq, timer) -> Heap.push t.heap ~time ~seq timer)
    (List.rev !keep);
  t.dead <- 0

let cancel timer =
  if not timer.cancelled then begin
    timer.cancelled <- true;
    timer.action <- ignore;
    if timer.queued then begin
      let t = timer.owner in
      t.live <- t.live - 1;
      t.dead <- t.dead + 1;
      if t.dead > t.live then purge t
    end
  end

let every t ~period action =
  if period <= 0.0 then invalid_arg "Event_loop.every: period must be positive";
  let handle =
    { cancelled = false; action = ignore; owner = t; queued = false }
  in
  let rec tick () =
    if not handle.cancelled then begin
      action ();
      if not handle.cancelled then ignore (schedule t ~delay:period tick)
    end
  in
  ignore (schedule t ~delay:period tick);
  handle

(* Bring the epoll set in line with [w]'s callbacks, and drop a watcher
   left with none.  Only a change of interest costs a syscall. *)
let sync t fd w =
  let mask =
    (if w.on_read <> None then Epoll.readable else 0)
    lor if w.on_write <> None then Epoll.writable else 0
  in
  if mask <> w.mask then begin
    Epoll.set t.ep fd ~was:w.mask mask;
    w.mask <- mask
  end;
  if mask = 0 then Hashtbl.remove t.fds fd

let watcher t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some w -> w
  | None ->
    let w = { on_read = None; on_write = None; mask = 0 } in
    Hashtbl.replace t.fds fd w;
    w

let watch_read t fd f =
  let w = watcher t fd in
  w.on_read <- Some f;
  sync t fd w

let watch_write t fd f =
  let w = watcher t fd in
  w.on_write <- Some f;
  sync t fd w

let unwatch_write t fd =
  match Hashtbl.find_opt t.fds fd with
  | None -> ()
  | Some w ->
    w.on_write <- None;
    sync t fd w

(* The callbacks are cleared too: an event already gathered for [fd] in
   this pass then reaches nobody, even if the number is reused. *)
let forget t fd =
  match Hashtbl.find_opt t.fds fd with
  | None -> ()
  | Some w ->
    w.on_read <- None;
    w.on_write <- None;
    sync t fd w

(* Run every timer due as of one clock sample.  A due timer that schedules
   another immediately-due timer yields to the next pass rather
   than starving it. *)
let run_due_timers t =
  let cutoff = now t in
  let rec loop () =
    match Heap.peek_time t.heap with
    | Some time when time <= cutoff -> (
        match Heap.pop t.heap with
        | Some (_, _, timer) ->
          timer.queued <- false;
          if timer.cancelled then t.dead <- t.dead - 1
          else begin
            t.live <- t.live - 1;
            timer.action ()
          end;
          loop ()
        | None -> ())
    | Some _ | None -> ()
  in
  loop ()

let ticks t = t.ticks

let defer t f = Queue.push f t.deferred

let at_end_of_pass t f = Queue.push f t.finishing

(* Until empty: a queued callback may queue another. *)
let run_queue q =
  while not (Queue.is_empty q) do
    (Queue.pop q) ()
  done

(* Wait for readiness, parked (see [notify]) unless the wait is 0 s.  A
   pending notify, or work already queued for a later phase, waits for
   nothing. *)
let wait t timeout =
  if
    timeout <= 0.0 || Atomic.get t.pending
    || not (Queue.is_empty t.deferred && Queue.is_empty t.finishing)
  then Epoll.wait t.ep t.ready_fds t.ready_evs 0.0
  else begin
    Atomic.set t.parked true;
    let timeout = if Atomic.get t.pending then 0.0 else timeout in
    let n = Epoll.wait t.ep t.ready_fds t.ready_evs timeout in
    Atomic.set t.parked false;
    n
  end

let readable = Epoll.readable lor Epoll.failed
let writable = Epoll.writable lor Epoll.failed

let run_once t ?(max_wait = 0.05) () =
  t.ticks <- t.ticks + 1;
  let timeout =
    match Heap.peek_time t.heap with
    | Some time -> max 0.0 (min max_wait (time -. now t))
    | None -> max 0.0 max_wait
  in
  let n = wait t timeout in
  (* Look every watcher up before any callback runs: [forget] empties the
     record, so an event for a descriptor forgotten earlier in the pass
     reaches nobody, even if its number was reused. *)
  for i = 0 to n - 1 do
    let fd = t.ready_fds.(i) in
    t.ready_ws.(i) <-
      (if fd = t.wake_r then begin
         drain_wake t;
         dead_watcher
       end
       else Option.value (Hashtbl.find_opt t.fds fd) ~default:dead_watcher)
  done;
  for i = 0 to n - 1 do
    match t.ready_ws.(i).on_read with
    | Some f when t.ready_evs.(i) land readable <> 0 -> f ()
    | Some _ | None -> ()
  done;
  run_notified t;
  (* Deferred work (a replica's group commit) runs between the handlers
     that queued replies and the write callbacks and end-of-pass flushes
     that send them, and again after the timers, so no byte queued in a
     pass leaves before it. *)
  run_queue t.deferred;
  for i = 0 to n - 1 do
    let w = t.ready_ws.(i) in
    t.ready_ws.(i) <- dead_watcher;
    match w.on_write with
    | Some f when t.ready_evs.(i) land writable <> 0 -> f ()
    | Some _ | None -> ()
  done;
  run_due_timers t;
  run_queue t.deferred;
  run_queue t.finishing

let run_for t duration =
  let deadline = now t +. duration in
  while now t < deadline do
    run_once t ~max_wait:(min 0.05 (deadline -. now t)) ()
  done

let run_until t ?deadline pred =
  let expired () = match deadline with Some d -> now t >= d | None -> false in
  while (not (pred ())) && not (expired ()) do
    run_once t ()
  done;
  pred ()

let run_forever t ~stop =
  while not (stop ()) do
    run_once t ()
  done
