(** Lockgraph shard server — the Titan stand-in of Figure 6.

    Plain adjacency storage guarded by per-vertex reader/writer locks with
    FIFO queueing.  A lock request that waits longer than [lock_timeout]
    (virtual seconds) is answered with [L_lock_timeout] so the client can
    break potential deadlocks by releasing everything and retrying — the
    classical timeout-based 2PL discipline online graph databases use. *)

type t

val create :
  net:G_msg.msg Kronos_simnet.Net.t ->
  addr:Kronos_simnet.Net.addr ->
  ?lock_timeout:float ->
  unit ->
  t
(** [lock_timeout] defaults to 20 ms of virtual time.  Capacity benchmarks
    model the shard's CPU on the network ({!Kronos_simnet.Net.set_service}
    with {!G_msg.service}). *)

val addr : t -> Kronos_simnet.Net.addr

val adjacency_now : t -> int -> int list
(** Current adjacency of a vertex, sorted (test hook). *)

val preload : t -> vertex:int -> neighbors:int list -> unit
(** Bulk-load adjacency directly (benchmark setup). *)

val held_locks : t -> int
(** Vertices currently locked (read or write). *)

val waiting : t -> int

val timeouts : t -> int
(** Lock requests answered with [L_lock_timeout]. *)
