(** Single-server work queue: models the CPU capacity of a simulated server.

    Link latency alone cannot reproduce capacity effects (saturation,
    queueing delay, load-dependent throughput).  A [Service_queue] serializes
    jobs and charges each one a busy period, so a server's throughput is
    bounded by [1 / cost] regardless of how many clients hit it.

    Jobs run at the moment the server gets to them (queueing delay
    included); their cost is declared up front, in virtual seconds, so a
    run's timing never depends on how fast the host executes it. *)

type t

val create : Sim.t -> t

val submit_fixed : t -> cost:float -> (unit -> unit) -> unit
(** Run the job when the server is free and keep the server busy for
    [cost] virtual seconds afterwards.  @raise Invalid_argument if [cost]
    is negative. *)

val busy_until : t -> float
(** Current virtual time when the server is mid-job, [neg_infinity] when
    idle. *)

val total_busy : t -> float
(** Accumulated busy time — divide by elapsed time for utilization. *)

val jobs : t -> int
