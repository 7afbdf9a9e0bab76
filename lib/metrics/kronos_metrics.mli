(** Process-wide observability primitives: allocation-light counters,
    gauges and fixed-bucket log-scale latency histograms, organized in a
    registry of named scopes and exported either as a Prometheus-style text
    page or as flat [(name, value)] samples for the chain's [Stats] RPC.

    Design constraints (DESIGN.md §10):

    - {b allocation-light}: a counter is one mutable int, a histogram one
      preallocated int array; recording never allocates on the hot path;
    - {b compiled-in but switchable}: every recording operation is gated on
      a single process-wide flag ({!set_enabled}).  With the flag off, the
      sink is a no-op and instrumented code behaves bit-identically to
      uninstrumented code — the deterministic simulation benches rely on
      this, and the [bench micro] ablation measures the residual cost of
      the gate itself (<5% on the query hot path);
    - {b process-wide}: one implicit registry per process.  [kronosd]
      serves it over the [Stats] admin RPC and [--metrics-addr]; tests and
      benches may also use unregistered metrics ({!Counter.make} etc.)
      that never appear in the exposition. *)

val set_enabled : bool -> unit
(** Switch every metric in the process between recording and the no-op
    sink.  Enabled by default.  Disabling does not clear accumulated
    values; see {!reset}. *)

val enabled : unit -> bool

(** {1 Instruments} *)

module Counter : sig
  type t

  val make : unit -> t
  (** A free-standing (unregistered) counter; {!val-counter} registers one. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

(** A counter that several domains may bump at once ([Atomic.fetch_and_add]
    per increment).  For the few counters recorded off the loop thread,
    such as the certify prover's on query-pool reader domains; everything
    else uses the cheaper {!Counter}. *)
module Atomic_counter : sig
  type t

  val make : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val make : unit -> t
  val set : t -> int -> unit
  val add : t -> int -> unit
  val value : t -> int
end

(** Latency histogram over seconds, with fixed power-of-two buckets from
    below a nanosecond to ~36 hours.  Quantiles are extracted from bucket
    counts, so they carry at most a factor-[sqrt 2] relative error — ample
    for p50/p90/p99 reporting — while [max] is exact. *)
module Histogram : sig
  type t

  val make : unit -> t
  val observe : t -> float -> unit
  (** Record a value in seconds.  Negative and zero values land in the
      lowest bucket. *)

  val count : t -> int
  val sum : t -> float

  val max_value : t -> float
  (** Largest value observed (exact); 0 before the first observation. *)

  val quantile : t -> float -> float
  (** [quantile h q] for [q] in [0, 1]: an estimate of the [q]-quantile,
      clamped to [max_value]; [q >= 1] returns the exact maximum. *)

  (** {2 Bucket geometry (exposed for tests)} *)

  val bucket_count : int

  val bucket_of : float -> int
  (** Index of the bucket a value falls into. *)

  val bucket_upper : int -> float
  (** Exclusive upper bound of bucket [i]; values in bucket [i] lie in
      [[bucket_upper i /. 2., bucket_upper i)]. *)
end

(** {1 Registry} *)

type scope
(** A named scope: metrics registered under scope [s] with name [n] are
    exported as [kronos_<s>_<n>]. *)

val scope : string -> scope

val counter : scope -> ?labels:(string * string) list -> string -> Counter.t
(** Register (or retrieve) the counter [kronos_<scope>_<name>{labels}].
    Re-registering the same name and labels returns the same counter.
    @raise Invalid_argument if the name is already registered as a
    different kind of instrument. *)

val atomic_counter :
  scope -> ?labels:(string * string) list -> string -> Atomic_counter.t
(** Like {!val-counter}, for an {!Atomic_counter}; exported as a counter. *)

val gauge : scope -> ?labels:(string * string) list -> string -> Gauge.t
val histogram : scope -> ?labels:(string * string) list -> string -> Histogram.t

val read_only_gauge :
  scope -> ?labels:(string * string) list -> string -> int -> unit
(** [read_only_gauge s n v] registers the gauge [kronos_<s>_<n>] with the
    fixed value [v], for facts settled when the process starts (which
    code path a module selected, say).  {!set_enabled} and {!reset} leave
    it alone.  Re-registering with the same value is a no-op.
    @raise Invalid_argument if the name is registered as anything else,
    including a read-only gauge with another value. *)

(** {1 Export} *)

val quantiles : float list
(** The quantile levels flattened into {!samples} and {!render}:
    [[0.5; 0.9; 0.99]] (plus the exact max as [quantile="1"]). *)

val samples : unit -> (string * float) list
(** Flat snapshot of the registry, sorted by name: counters and gauges as
    [(name{labels}, value)]; each histogram as its {!quantiles} (with a
    [quantile] label), then [_count], [_sum] and [_max] series.  This is
    the payload of the chain's [Stats_is] message. *)

val render : unit -> string
(** Prometheus-style text exposition ([name{label="v"} value] lines with
    [# TYPE] comments), served by [kronosd --metrics-addr]. *)

val reset : unit -> unit
(** Zero every registered metric (for tests and ablations). *)
