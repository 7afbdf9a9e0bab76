(** Level-triggered epoll(7) through a C stub ([epoll_stubs.c]).
    {!Event_loop} keeps one interest set across passes, and
    {!Tcp_transport}'s shutdown grace waits on a throwaway one. *)

val create : unit -> Unix.file_descr
(** A new, close-on-exec epoll descriptor. *)

(** {1 Event masks} *)

val readable : int
(** [EPOLLIN] *)

val writable : int
(** [EPOLLOUT] *)

val failed : int
(** [EPOLLERR lor EPOLLHUP]: reported whatever the interest.  The loop
    takes either as both readable and writable, so the callback that next
    touches the socket sees the error. *)

(** {1 Interest} *)

val set : Unix.file_descr -> Unix.file_descr -> was:int -> int -> unit
(** [set ep fd ~was mask] moves [fd]'s interest from [was] (0: not
    registered) to [mask]; a mask of 0 removes it.  Never fails because
    the kernel's set disagrees with [was]: a descriptor already (or no
    longer) registered is modified, added or left out as [mask] asks. *)

val wait :
  Unix.file_descr -> Unix.file_descr array -> int array -> float -> int
(** [wait ep fds evs timeout] blocks at most [timeout] seconds (to the
    nanosecond through epoll_pwait2, rounded up to whole milliseconds on
    kernels without it; negative waits without limit, and at most a day)
    with the runtime lock released, then stores up to 256 ready descriptors and
    their masks into [fds] and [evs] and returns how many.  An
    interrupted wait returns 0. *)

val wait_writable : Unix.file_descr -> float -> bool
(** [wait_writable fd timeout] blocks until [fd] can take a write (or has
    failed) or [timeout] seconds pass, on an interest set of its own. *)
