(** Simulated message network.

    Processes are integer addresses with a delivery handler.  Messages are
    delivered asynchronously after a per-link latency draw; links are FIFO by
    default (like a TCP connection).  Crashes ({!unregister}), partitions and
    probabilistic drops let tests and benchmarks inject the failures the
    paper's fault-tolerance experiment needs.

    The network owns both halves of the performance model: the latency of
    each link and, through {!set_service}, the CPU capacity of each
    process.  The processes themselves are plain handlers. *)

type addr = int

type latency = {
  base : float;   (** fixed one-way delay, seconds *)
  jitter : float; (** additional uniform [0, jitter) delay *)
  drop : float;   (** probability a message is silently lost *)
}

val default_latency : latency
(** 100 µs base, 50 µs jitter, no drops — a LAN-ish link. *)

type 'm t

val create : ?latency:latency -> ?fifo:bool -> Sim.t -> 'm t
(** [fifo] (default true) forces per-link in-order delivery by pushing each
    delivery after the previously scheduled one on the same link. *)

val sim : 'm t -> Sim.t

val register : 'm t -> addr -> (src:addr -> 'm -> unit) -> unit
(** Attach a handler; replaces any previous handler for the address. *)

val unregister : 'm t -> addr -> unit
(** Crash the process: in-flight and future messages to it are dropped,
    and so is work its server had queued but not yet started. *)

val is_registered : 'm t -> addr -> bool

val send : 'm t -> src:addr -> dst:addr -> 'm -> unit
(** Queue a message.  Self-sends are delivered (after latency) too. *)

val set_service : 'm t -> addr -> ('m -> float option) -> unit
(** Model the CPU of the process at an address (capacity benchmarks):
    [cost m] is the virtual time handling [m] keeps the server busy, and
    messages wait in FIFO order for a busy server ({!Service_queue}).
    [None] handles the message on arrival, outside the queue, as a
    dedicated thread would (heartbeats).  Each {!register} at the address
    gets its own idle server; a queued message whose registration was
    replaced or removed before the server reached it is counted in
    {!dropped} and never handled.  Replaces any previous model for the
    address; without one every message is handled on arrival. *)

val set_link : 'm t -> src:addr -> dst:addr -> latency -> unit
(** Override the latency model of one directed link. *)

val partition : 'm t -> addr list -> addr list -> unit
(** Drop all traffic between the two groups (both directions) until
    {!heal}. *)

val heal : 'm t -> unit
(** Remove all partitions. *)

(** Delivery accounting, for tests and experiment reporting. *)
val sent : 'm t -> int
val delivered : 'm t -> int
val dropped : 'm t -> int
