(** Globally unique event identifiers.

    An identifier packs a graph slot index with a generation counter.  Slots
    are reused after garbage collection; the generation lets the engine detect
    (and reject) uses of a collected event's identifier instead of silently
    resolving it to an unrelated newer event. *)

type t = private int
(** Code may read an identifier as an [int] with [(e :> int)], so tables
    keyed by identifiers store them unboxed and comparisons compile to
    integer compares; only {!make}, {!of_int64} and {!none} build one. *)

val none : t
(** A sentinel identifier that never names a live event. *)

val make : slot:int -> gen:int -> t
(** @raise Invalid_argument if [slot] or [gen] is out of range. *)

val slot : t -> int

val gen : t -> int

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

val to_int64 : t -> int64
(** Stable wire representation. *)

val of_int64 : int64 -> t
(** @raise Invalid_argument if the value is not a valid packed identifier. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val max_slot : int
(** Largest representable slot index. *)
