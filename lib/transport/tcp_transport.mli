(** Real TCP implementation of {!Transport}: a single-threaded runtime on
    an {!Event_loop} with non-blocking sockets and length-prefixed framing
    ({!Kronos_wire.Frame}).

    {b Addressing.}  Transport addresses stay small integers.  Each
    runtime owns the addresses registered on it and a {e peer table}
    mapping remote addresses to [host:port] endpoints ({!add_peer}).  In
    addition, every established connection announces the sender's local
    addresses (a HELLO frame) and every delivered message names its source
    address, so return routes are {e learned}: a client that dials the
    replicas needs no listener of its own for replies to find it.

    {b Connections.}  Outgoing connections are pooled per endpoint.
    Every read of a runtime lands in one reused receive buffer and partial
    frames are reassembled per connection; a connection's queued frames
    leave in one write at the end of the loop pass that queued them
    ({!Event_loop.at_end_of_pass}), and only a short write (or EAGAIN)
    watches the socket for writability, keeping its offset and resuming
    when the socket takes more.  A failed or broken peer connection
    reconnects with exponential backoff (a frame half-written when the
    connection died is discarded — the receiver lost its reassembly state
    with the connection, so no torn frame is ever delivered).  Connections
    idle longer than [idle_timeout] are closed and re-dialed on demand.

    {b Backpressure.}  Each connection's write queue is capped at
    [max_buffer] bytes; sends beyond the cap are counted in {!dropped}
    and discarded, which the chain protocol absorbs by retransmission.

    Delivery is at-most-once and unordered across reconnects — exactly
    the contract the replication layer assumes of {!Transport.send}. *)

type config = {
  max_frame : int;  (** reject inbound frames larger than this *)
  max_buffer : int;  (** per-connection write-queue cap, bytes *)
  backoff_min : float;  (** first reconnect delay *)
  backoff_max : float;  (** reconnect delay ceiling *)
  idle_timeout : float;  (** close idle connections after this; 0 = never *)
}

val default_config : config
(** 16 MiB frames, 16 MiB buffers, 50 ms — 5 s backoff, 60 s idle. *)

type 'm t

val create :
  loop:Event_loop.t ->
  encode:('m -> string) ->
  decode:(string -> 'm) ->
  ?config:config ->
  unit ->
  'm t
(** [decode] must raise {!Kronos_wire.Codec.Decode_error} on malformed
    bytes; a connection delivering undecodable frames is dropped. *)

val listen : 'm t -> ?host:string -> port:int -> unit -> int
(** Bind and listen ([SO_REUSEADDR]); [port = 0] picks an ephemeral port.
    Returns the actual port. *)

val add_peer : 'm t -> Transport.addr -> host:string -> port:int -> unit
(** Route messages for [addr] to the runtime listening at [host:port].
    Several addresses may share one endpoint (a daemon hosting a replica
    and the coordinator). *)

val connect_peers : 'm t -> unit
(** Eagerly dial every peer endpoint, announcing the local addresses.
    Clients call this so that replicas they never dialed (e.g. the chain
    tail, which sends the replies) learn a return route. *)

val transport : 'm t -> 'm Transport.t
(** The abstraction the replication/service layers consume.  Timers run
    on the event loop; [defer] is {!Event_loop.defer};
    [send] to a locally registered address short-circuits through the
    loop (never re-entrantly).  [send] only queues: bytes leave at the
    end of the loop pass, after its deferred work (or, behind a short
    write, in a later pass's write callbacks), never inside the caller. *)

val shutdown : 'm t -> unit
(** Graceful: stop listening, try briefly to flush pending write queues,
    close every connection, cancel housekeeping timers.  Idempotent.
    That flush is the one write outside the loop's flush points: called
    from a handler, it sends frames queued before the pass's deferred
    work ran.  Daemons call it once their loop has stopped. *)

(** {1 Introspection} *)

val sent : 'm t -> int
val delivered : 'm t -> int
val dropped : 'm t -> int
val connections : 'm t -> int
val reconnects : 'm t -> int
