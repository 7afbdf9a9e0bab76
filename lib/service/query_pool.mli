(** The multicore query plane (DESIGN.md §14): a pool of reader domains
    answering read-only requests against epoch-published immutable
    {!Kronos.Engine.View} values, while the event-loop thread stays the
    single writer.

    Life cycle: {!create} spawns the domains before any engine exists
    (so all metrics instruments are registered from the main domain);
    {!attach} then connects the pool to the replica's engine cell, and
    the replica's [read_async] hook feeds it via {!offload}.

    Data flow per request: [offload] (on the loop thread) decodes the
    command once, publishes the engine's current view — an incremental
    {!Kronos.Graph.freeze}, at most once per event-loop iteration plus a
    forced refresh whenever a request demands an epoch newer than the
    published view — into an atomic slot, and enqueues the job on the
    worker owning the connection
    (connections are sharded [client mod domains], which keeps replies
    per-connection FIFO and epochs per-connection monotonic).  The worker
    answers against the latest view with zero locks on the query path and
    per-domain reusable traversal scratch.  A worker takes its whole
    queue at once and posts the batch's encoded responses on a completion
    queue under one lock with one {!Kronos_transport.Event_loop.notify};
    the loop thread drains every posted completion in one batch and sends
    the replies, and signals a worker only when its queue goes from empty
    to non-empty. *)

type t

val respond : Kronos.Engine.View.t -> Kronos_wire.Message.request ->
  Kronos_wire.Message.response
(** The answer to a [Query_order] or [Query_proof] request over [view],
    stamped with the view's epoch: the one read path, run by reader
    domains over published views and by [Server.apply] over the engine's
    live view.
    @raise Invalid_argument on a write request. *)

val create : loop:Kronos_transport.Event_loop.t -> domains:int -> unit -> t
(** Spawn [domains] reader domains (at least 1).  Must be called from the
    main domain before the process starts serving.  Registers the
    [query_pool] metrics scope: [query_domains], [view_epoch],
    [view_publish_total], per-domain [answered_total{domain=i}] and
    [queue_depth{domain=i}]. *)

val attach : t -> engine:(unit -> Kronos.Engine.t) -> unit
(** Connect the pool to the engine it publishes views of.  The thunk is
    re-read on every publish, so a replica whose engine cell is replaced
    (snapshot install, restart) publishes the current engine's state from
    the next view onwards.  Until [attach] is called, {!offload} declines
    every request. *)

val offload :
  t -> client:int -> cmd:string -> reply:(string -> unit) -> bool
(** [offload t ~client ~cmd ~reply] takes ownership of a read-only
    command and returns [true]; [reply] will be called exactly once, on
    the event-loop thread, with the encoded response.  Returns [false] —
    caller must serve synchronously — for writes, malformed commands, or
    before {!attach}.  Must be called from the event-loop thread (it
    freezes the engine). *)

val domains : t -> int

val stop : t -> unit
(** Drain and join the reader domains.  Jobs already queued are answered
    and their completions delivered on the next loop iterations;
    subsequent {!offload} calls return [false].  Idempotent. *)
