(** Typed Kronos client over the replicated service.

    The client implements the optimizations of Sections 2.5 and 3.2 of the
    paper:

    - {b order caching}: stable answers ([Before]/[After]) are kept in an
      LRU {!Kronos.Order_cache} with transitive pre-fill, so repeated
      queries cost no network round trip;
    - {b apportioned reads}: with [stale:true], [query_order] is served by a
      randomly chosen replica.  Monotonicity makes ordered answers from a
      stale replica definitive; only pairs the stale replica reports as
      [Concurrent] are re-validated at the tail.

    All operations are asynchronous: callbacks fire when the round trips
    complete.  Callbacks may fire synchronously when the cache answers every
    pair.

    Every operation takes an optional per-call [?timeout] (seconds).
    Without one, the proxy retries forever and the callback eventually
    receives [Ok _] or [Error (Error.Rejected _)]; with one, the callback
    receives [Error Error.Timeout] once the deadline passes without a
    reply.  A stale query that needs tail revalidation applies the timeout
    to each of its two round trips.

    All operations fail with the service-wide {!Error.t}.  A reply that
    does not decode, or that carries a different number of relations or
    outcomes than the request had pairs, fails the call with
    [Error (Error.Rejected (Unknown_event Event_id.none))]. *)

open Kronos

type t

val create :
  net:Kronos_replication.Chain.msg Kronos_transport.Transport.t ->
  addr:Kronos_transport.Transport.addr ->
  coordinator:Kronos_transport.Transport.addr ->
  ?cache_capacity:int ->
  ?request_timeout:float ->
  unit ->
  t
(** [cache_capacity] (default 65536) bounds the order cache; 0 disables
    caching entirely (used by the cache ablation benchmark).
    [request_timeout] is the {e retransmission} interval, not a deadline;
    per-call deadlines are the [?timeout] arguments below. *)

val create_event :
  t -> ?timeout:float -> ((Event_id.t, Error.t) result -> unit) -> unit

val acquire_ref :
  t -> ?timeout:float -> Event_id.t -> ((unit, Error.t) result -> unit) -> unit

val release_ref :
  t -> ?timeout:float -> Event_id.t -> ((int, Error.t) result -> unit) -> unit

val query_order :
  t ->
  ?timeout:float ->
  ?stale:bool ->
  ?revalidate:bool ->
  ?consistency:[ `Latest | `At_least of int64 ] ->
  (Event_id.t * Event_id.t) list ->
  ((Order.relation list, Error.t) result -> unit) ->
  unit
(** [stale] (default false) picks a random replica and — when [revalidate]
    (default true) — re-checks concurrent answers at the tail.  Disable
    revalidation only when the caller knows replicas cannot be behind (e.g.
    a read-only phase), as in the paper's scalability experiment.

    [consistency] (default [`Latest]) is the view-epoch demand
    (DESIGN.md §14), sent as the request's [min_epoch]: [`Latest] is
    [min_epoch = 0], which every view meets.  For [`At_least e], if the
    answering replica's view is older than [e], the client retries
    once at the tail — which applied the write that produced [e], so
    cannot be behind it.  Pass [`At_least (last_epoch t)] after an
    {!assign_order} ack for read-your-writes.  Cached answers are served
    regardless of the demand: cache entries are stable facts, true at
    every later epoch (monotonicity). *)

val query_order_e :
  t ->
  ?timeout:float ->
  ?stale:bool ->
  ?consistency:[ `Latest | `At_least of int64 ] ->
  (Event_id.t * Event_id.t) list ->
  ((Order.relation list * int64, Error.t) result -> unit) ->
  unit
(** Like {!query_order} but cache-{e bypassing} and epoch-{e reporting}:
    every pair is sent to the service and the callback also receives the
    exact view epoch the answers reflect.  Answers still populate the
    cache.  This is
    what [kronos_cli query] prints. *)

val assign_order :
  t ->
  ?timeout:float ->
  Order.spec list ->
  ((Order.outcome list, Error.t) result -> unit) ->
  unit
(** Atomic ordering batch, applied by the replicated state machine; build
    the specs with {!Order.must_before} and friends.  On success, every
    applied or implied pair is inserted into the local order cache.

    The ack carries the engine epoch after the batch applied and advances
    {!last_epoch}, so [`At_least (last_epoch t)] reads this write. *)

val query_verified :
  t ->
  ?timeout:float ->
  ?stale:bool ->
  Event_id.t ->
  Event_id.t ->
  ((Order.relation * Kronos_certify.Certificate.t option, Error.t) result ->
   unit) ->
  unit
(** Verified read (DESIGN.md §13): query one pair and, when the answer is
    ordered, ask the server for a happens-before certificate, which is
    checked locally with {!Kronos_certify.Verifier.verify} before the
    callback fires.  A certificate that fails verification (or names
    different endpoints than the query) fails the call with
    [Error.Proof_invalid] — the relation claimed by the server is {e not}
    reported.

    On success every edge of the verified path is inserted into the order
    cache (it is an authenticated stable fact), so one verified read
    pre-fills the whole chain of events it crossed.

    [Ok (relation, None)] means the server answered without a proof:
    either the relation is [Concurrent]/[Same] (nothing to prove), or it
    holds but is not provable from the hash chains (see
    {!Kronos_certify.Prover}); the answer is then exactly as trustworthy
    as a plain {!query_order}.  Callers needing cross-answer tamper
    evidence should feed returned certificates to
    {!Kronos_certify.Audit}. *)

(** {1 Introspection} *)

val cache : t -> Order_cache.t option

val cache_stats : t -> Order_cache.stats option
(** Counters of the client-side order cache ([None] when caching is
    disabled). *)

val server_queries : t -> int
(** Number of [query_order] requests actually sent to the service (cache
    hits excluded) — the "operations requiring a Kronos traversal" metric
    the paper reports for KronoGraph. *)

val stale_revalidations : t -> int
(** Pairs a stale replica answered [Concurrent] that were re-validated at
    the tail. *)

val last_epoch : t -> int64
(** Highest view epoch observed in any reply ({!assign_order} acks,
    queries sent to the service); 0 before the first one.
    [`At_least (last_epoch t)] demands read-your-writes. *)

val epoch_retries : t -> int
(** Queries re-sent to the tail because a stale replica's view was behind
    the demanded epoch. *)
