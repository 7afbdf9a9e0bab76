module Heap = Kronos_simnet.Heap

type watcher = {
  mutable on_read : (unit -> unit) option;
  mutable on_write : (unit -> unit) option;
}

type timer = {
  mutable cancelled : bool;
  mutable action : unit -> unit;
  owner : t;
  mutable queued : bool;   (* in [owner]'s heap; [every] handles never are *)
}

and t = {
  heap : timer Heap.t;
  fds : (Unix.file_descr, watcher) Hashtbl.t;
  mutable seq : int;
  (* Heap entries by state.  [cancel] only flags a timer, so a cancelled
     one stays in the heap until its deadline; once such [dead] entries
     outnumber the [live] ones the heap is rebuilt without them (see
     [purge]).  Every request timer a client acknowledges is cancelled
     long before it is due. *)
  mutable live : int;
  mutable dead : int;
  (* Self-pipe (DESIGN.md §14): [notify] — callable from any domain —
     writes one byte to [wake_w], which makes the select (or the idle
     sleep, since [wake_r] is always in the read set) return promptly;
     the loop thread drains the pipe and runs the [on_notify] callbacks.
     [notified] dedupes writes so a burst of completions costs one byte. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  notified : bool Atomic.t;
  wake_buf : Bytes.t;
  mutable notify_callbacks : (unit -> unit) list;
  mutable ticks : int;
  deferred : (unit -> unit) Queue.t;
}

let drain_wake t () =
  (* One read empties the pipe: the [notified] latch lets a byte in only
     while it is clear, so the pipe holds at most one byte, and a read of
     [wake_buf] takes it without a second syscall to hit EAGAIN.  A byte
     left behind (an interrupted read) only wakes the next round again. *)
  (try ignore (Unix.read t.wake_r t.wake_buf 0 (Bytes.length t.wake_buf)) with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ());
  (* Clear the latch only once the pipe is empty.  Clearing it before the
     drain lost wakeups: a notify racing the read above would set the
     flag and write a byte that the same drain then consumed, leaving the
     latch set over an empty pipe — after which every later notify skipped
     its write and the loop slept through completions until stop.  With
     this order a notify that lands after the clear writes a fresh byte
     (waking the next round), and one that lands before it had its
     completion enqueued before calling notify, so the callbacks below
     pick it up. *)
  Atomic.set t.notified false;
  List.iter (fun f -> f ()) t.notify_callbacks

let create () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    { heap = Heap.create (); fds = Hashtbl.create 16; seq = 0; live = 0;
      dead = 0;
      wake_r; wake_w; notified = Atomic.make false;
      wake_buf = Bytes.create 64; notify_callbacks = []; ticks = 0;
      deferred = Queue.create () }
  in
  t

let rec write_wake t =
  try ignore (Unix.write t.wake_w t.wake_buf 0 1) with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    (* pipe full: the loop is already guaranteed to wake *)
    ()
  | Unix.Unix_error (Unix.EINTR, _, _) ->
    (* the latch is already set, so no other notify will retry for us:
       the byte must land or the wakeup is lost *)
    write_wake t

let notify t =
  if not (Atomic.exchange t.notified true) then write_wake t

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

let watcher t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some w -> w
  | None ->
    let w = { on_read = None; on_write = None } in
    Hashtbl.replace t.fds fd w;
    w

let watch_read t fd f = (watcher t fd).on_read <- Some f
let watch_write t fd f = (watcher t fd).on_write <- Some f

let drop_if_empty t fd w =
  if w.on_read = None && w.on_write = None then Hashtbl.remove t.fds fd

let unwatch_write t fd =
  match Hashtbl.find_opt t.fds fd with
  | None -> ()
  | Some w ->
    w.on_write <- None;
    drop_if_empty t fd w

let forget t fd = Hashtbl.remove t.fds fd

(* Run every timer due as of one clock sample.  A due timer that schedules
   another immediately-due timer yields to the next select round rather
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

(* Until empty: a deferred callback may defer another. *)
let run_deferred t =
  while not (Queue.is_empty t.deferred) do
    (Queue.pop t.deferred) ()
  done

let run_once t ?(max_wait = 0.05) () =
  t.ticks <- t.ticks + 1;
  let timeout =
    match Heap.peek_time t.heap with
    | Some time -> max 0.0 (min max_wait (time -. now t))
    | None -> max 0.0 max_wait
  in
  (* the self-pipe read end is always selected, so the loop never sleeps
     blind: a cross-domain [notify] interrupts both a busy select and the
     idle wait (before the pipe existed, an fd-less loop slept the whole
     timer interval regardless of completions) *)
  let reads =
    Hashtbl.fold
      (fun fd w acc -> if w.on_read <> None then fd :: acc else acc)
      t.fds [ t.wake_r ]
  in
  let writes =
    Hashtbl.fold (fun fd w acc -> if w.on_write <> None then fd :: acc else acc) t.fds []
  in
  let ready_r, ready_w =
    match Unix.select reads writes [] timeout with
    | r, w, _ -> (r, w)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
  in
  (* A callback may unwatch or forget descriptors later in the ready list;
     re-check the table before each dispatch. *)
  List.iter
    (fun fd ->
      if fd = t.wake_r then drain_wake t ()
      else
        match Hashtbl.find_opt t.fds fd with
        | Some { on_read = Some f; _ } -> f ()
        | Some _ | None -> ())
    ready_r;
  (* Deferred work (a replica's group commit) runs between the handlers
     that queued replies and the write callbacks that send them, and again
     after the timers, so no byte queued in a pass leaves before it. *)
  run_deferred t;
  List.iter
    (fun fd ->
      match Hashtbl.find_opt t.fds fd with
      | Some { on_write = Some f; _ } -> f ()
      | Some _ | None -> ())
    ready_w;
  run_due_timers t;
  run_deferred t

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
