(** Transport abstraction: the message-passing surface the replication and
    service layers are written against.

    A transport delivers typed messages between integer addresses and
    provides the wall (or virtual) clock and timers of the world it lives
    in.  Two implementations exist:

    - {!Sim_transport} adapts the deterministic simulated network
      ({!Kronos_simnet.Net}), preserving reproducible simulation; its
      latency and capacity models live in the network, below this
      surface;
    - {!Tcp_transport} is a real single-threaded TCP runtime (non-blocking
      sockets on a {!Event_loop}, length-prefixed framing, reconnection).

    The same replica, coordinator, proxy and client code runs unchanged
    over either.  Sends are asynchronous and unreliable by contract — the
    chain protocol already tolerates loss via retransmission and
    deduplication — so the TCP implementation is free to drop messages
    when a peer is unreachable or a connection buffer is full. *)

type addr = int
(** Endpoint identity.  Address-to-socket mapping is a property of the
    concrete transport (the simulated network needs none; TCP keeps a peer
    table and learns return routes from inbound connections). *)

type timer
(** Cancellable handle for {!schedule} and {!every}. *)

type 'm t = {
  send : src:addr -> dst:addr -> 'm -> unit;
  register : addr -> (src:addr -> 'm -> unit) -> unit;
  unregister : addr -> unit;
  is_registered : addr -> bool;
  now : unit -> float;
  schedule : delay:float -> (unit -> unit) -> timer;
  every : period:float -> (unit -> unit) -> timer;
  random_int : int -> int;
  defer : (unit -> unit) -> unit;
      (** Run work later in the current dispatch pass but before any byte
          queued by this pass's handlers leaves the runtime (TCP:
          {!Event_loop.defer}).  The simulated network runs it at once:
          its sends are already events on the virtual clock. *)
}

(** {1 Call-through helpers} *)

val send : 'm t -> src:addr -> dst:addr -> 'm -> unit
val register : 'm t -> addr -> (src:addr -> 'm -> unit) -> unit
val unregister : 'm t -> addr -> unit
val is_registered : 'm t -> addr -> bool
val now : 'm t -> float
val schedule : 'm t -> delay:float -> (unit -> unit) -> timer
val every : 'm t -> period:float -> (unit -> unit) -> timer
val random_int : 'm t -> int -> int
val defer : 'm t -> (unit -> unit) -> unit

val cancel : timer -> unit
(** Cancelling twice is harmless. *)

val make_timer : (unit -> unit) -> timer
(** Wrap a cancellation action (for transport implementors). *)
