(** A key-value shard server process.

    Serves plain [Get]/[Put], a FIFO lock manager ([Lock]/[Unlock]), and the
    Kronos transaction pin protocol ([Prepare]/[Decide]).

    The pin protocol (our realization of Section 3.3, see DESIGN.md):
    - a [Prepare] pins all its local keys, reads their values, and returns
      the ordering constraints "last writer of k happens-before this
      transaction" (plus "each reader since that write happens-before this
      transaction" for written keys);
    - while pinned, conflicting prepares park (FIFO by transaction age) and
      are admitted when the pin clears; a parked prepare that waits longer
      than [prepare_timeout] is rejected so the client can abort and retry,
      which breaks the rare cross-shard pin deadlocks;
    - [Decide] applies the writes (commit) or discards them (abort), unpins,
      and admits parked prepares, oldest first.

    Per-key write histories are retained so tests can verify
    serializability. *)

open Kronos

type t

val create :
  net:Kv_msg.msg Kronos_simnet.Net.t ->
  addr:Kronos_simnet.Net.addr ->
  ?prepare_timeout:float ->
  unit ->
  t
(** [prepare_timeout] (default 10 ms virtual) bounds how long a
    conflicting prepare may park before being rejected.  Capacity
    benchmarks model the shard's CPU on the network
    ({!Kronos_simnet.Net.set_service}). *)

val addr : t -> Kronos_simnet.Net.addr

(** {1 Direct (non-networked) inspection for tests and checkers} *)

val peek : t -> string -> string option
(** Current value of a key. *)

val history : t -> string -> (Event_id.t * string) list
(** Committed writes to a key, oldest first, with the writing transaction's
    event ([Event_id.none] for plain [Put]s). *)

val last_writer : t -> string -> Event_id.t option

val pinned_keys : t -> int
(** Keys currently pinned by an undecided transaction. *)

val parked_prepares : t -> int

val lock_queue_length : t -> int
(** Total waiters across all lock queues. *)

(** {1 Statistics} *)

val prepares : t -> int
val rejections : t -> int
val commits : t -> int
val aborts : t -> int
