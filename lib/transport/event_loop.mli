(** Single-threaded real-time reactor: file-descriptor readiness callbacks
    plus a timer heap, driven by level-triggered epoll(7) (Linux).

    The loop keeps one epoll interest set across passes: {!watch_read},
    {!watch_write}, {!unwatch_write} and {!forget} update it when they
    change a descriptor's interest, and a wait costs per ready descriptor,
    not per watched one, and descriptor numbers have no ceiling.

    This is the wall-clock twin of {!Kronos_simnet.Sim}: the same
    schedule/every/cancel surface, but time is [Unix.gettimeofday] and
    "runnable" means a socket is ready.  One loop can host any number of
    {!Tcp_transport} values (kronosd runs a replica and optionally the
    coordinator on one loop; the loopback tests run a whole cluster plus
    clients on one). *)

type t

val create : unit -> t

val now : t -> float
(** Wall-clock seconds ([Unix.gettimeofday]). *)

(** {1 Timers} *)

type timer

val schedule : t -> delay:float -> (unit -> unit) -> timer
val every : t -> period:float -> (unit -> unit) -> timer

val cancel : timer -> unit
(** Idempotent; cancelling from inside the timer's own action is allowed
    (and for [every], stops the recurrence).  A cancelled timer leaves
    the heap once cancelled timers outnumber live ones. *)

val pending_timers : t -> int
(** Timers scheduled and neither run nor cancelled. *)

(** {1 File descriptors}

    At most one read and one write callback per descriptor; re-watching
    replaces the callback.  A descriptor must be {!forget}ed before it is
    closed: epoll drops a closed descriptor by itself, but the loop's table
    would still hold its callbacks.  An error or hang-up on a descriptor
    runs whichever of its callbacks are set, as if it were both readable
    and writable. *)

val watch_read : t -> Unix.file_descr -> (unit -> unit) -> unit
val watch_write : t -> Unix.file_descr -> (unit -> unit) -> unit
val unwatch_write : t -> Unix.file_descr -> unit

val forget : t -> Unix.file_descr -> unit
(** Drop both callbacks for the descriptor. *)

(** {1 Cross-domain wakeup}

    The loop owns a self-pipe whose read end is always in the epoll set,
    but it is written only while the loop is parked in a blocking wait: a
    notify that reaches a busy loop costs one atomic store and no
    syscall. *)

val notify : t -> unit
(** Have the loop run its {!on_notify} callbacks promptly.  Safe to call
    from any domain (the only operation on this type that is).  It marks
    the loop's notify as pending and, only if the loop is parked, writes
    the self-pipe to wake it; a loop about to park finds the mark and
    does not block.  Any number of calls between two passes cost one
    callback run and at most one pipe byte. *)

val on_notify : t -> (unit -> unit) -> unit
(** Register a callback run (on the loop's own thread) by every pass that
    finds a {!notify} pending, after the pass's read callbacks and before
    its first deferral point.  Callbacks run in registration order and
    must themselves be cheap; typical use is draining a completion queue
    filled by other domains. *)

(** {1 Deferred work} *)

val defer : t -> (unit -> unit) -> unit
(** Queue a callback for the current pass's next deferral point (loop
    thread only).  A {!run_once} pass has two: after the read/notify
    callbacks and before any write callback, and again after the timers.
    Callbacks run in the order they were deferred; one deferred while the
    queue drains runs in the same drain.  Work that must precede every
    byte a pass's handlers queued (a WAL group commit) is deferred: bytes
    leave only in write callbacks and {!at_end_of_pass} callbacks, both
    of which run after a deferral point. *)

val at_end_of_pass : t -> (unit -> unit) -> unit
(** Queue a callback for the end of the current pass, after its last
    deferral point (loop thread only); queued outside a pass, it runs at
    the end of the next one.  Callbacks run in the order they were
    queued, one queued while they run in the same pass.  This is where
    {!Tcp_transport} flushes the frames a pass queued, so they leave in
    the pass that queued them and after its deferred work. *)

(** {1 Driving} *)

val run_once : t -> ?max_wait:float -> unit -> unit
(** One iteration: wait (at most [max_wait], default 0.05 s, clamped down
    to the next timer deadline; not at all when a notify is pending or
    deferred or end-of-pass work is queued) for readiness, then run, in
    order: ready read callbacks, notify callbacks (if a notify is
    pending), deferred callbacks, ready write callbacks, due timers,
    deferred callbacks, end-of-pass callbacks. *)

val ticks : t -> int
(** Number of {!run_once} iterations started so far (0 before the first).
    Loop-thread only.  Callbacks running inside iteration [n] observe
    [ticks t = n]; per-tick amortizations (e.g. the query pool's
    publish-at-most-once-per-iteration) key off this. *)

val run_for : t -> float -> unit
(** Iterate for a wall-clock duration. *)

val run_until : t -> ?deadline:float -> (unit -> bool) -> bool
(** Iterate until the predicate holds; [false] on deadline (absolute
    wall-clock time) instead.  Without a deadline, runs until the
    predicate holds. *)

val run_forever : t -> stop:(unit -> bool) -> unit
(** Iterate until [stop ()] — the daemon main loop. *)
