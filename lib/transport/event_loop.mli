(** Single-threaded real-time reactor: file-descriptor readiness callbacks
    plus a timer heap, driven by [Unix.select].

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
    closed, or the next [select] will fail with [EBADF]. *)

val watch_read : t -> Unix.file_descr -> (unit -> unit) -> unit
val watch_write : t -> Unix.file_descr -> (unit -> unit) -> unit
val unwatch_write : t -> Unix.file_descr -> unit

val forget : t -> Unix.file_descr -> unit
(** Drop both callbacks for the descriptor. *)

(** {1 Cross-domain wakeup}

    The loop owns a self-pipe whose read end is always in the select set,
    so it never waits blind — this also fixes the historical idle path
    where an fd-less loop slept the full timer interval no matter what. *)

val notify : t -> unit
(** Wake the loop promptly.  Safe to call from any domain (the only
    operation on this type that is); coalesces — any number of calls
    between two loop iterations cost one pipe byte and one wakeup. *)

val on_notify : t -> (unit -> unit) -> unit
(** Register a callback run (on the loop's own thread) every time the
    loop wakes from a {!notify}.  Callbacks run in registration order and
    must themselves be cheap; typical use is draining a completion queue
    filled by other domains. *)

(** {1 Deferred work} *)

val defer : t -> (unit -> unit) -> unit
(** Queue a callback for the current pass's next deferral point (loop
    thread only).  A {!run_once} pass has two: after the read/notify
    callbacks and before any write callback, and again after the timers.
    Callbacks run in the order they were deferred; one deferred while the
    queue drains runs in the same drain.  Work that must precede every
    byte a pass's handlers queued (a WAL group commit) is deferred: write
    callbacks are the only place queued bytes leave. *)

(** {1 Driving} *)

val run_once : t -> ?max_wait:float -> unit -> unit
(** One iteration: wait (at most [max_wait], default 0.05 s, clamped down
    to the next timer deadline) for readiness, then run, in order: ready
    read (and notify) callbacks, deferred callbacks, ready write callbacks,
    due timers, deferred callbacks. *)

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
