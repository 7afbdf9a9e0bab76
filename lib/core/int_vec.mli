(** Growable vector of unboxed integers.

    Used throughout the event dependency graph for adjacency lists and work
    stacks.  Growth follows array doubling, which is what produces the
    memory-consumption discontinuities the paper notes under Figure 10. *)

type t

val create : ?capacity:int -> unit -> t
(** [create ?capacity ()] is an empty vector.  [capacity] is a hint for the
    initial allocation (default 4). *)

val length : t -> int

val is_empty : t -> bool

val get : t -> int -> int
(** [get v i] is the [i]-th element.  @raise Invalid_argument if out of
    bounds. *)

val set : t -> int -> int -> unit
(** [set v i x] overwrites the [i]-th element.  @raise Invalid_argument if out
    of bounds. *)

val push : t -> int -> unit
(** [push v x] appends [x], growing the backing array if needed. *)

val pop : t -> int
(** [pop v] removes and returns the last element.
    @raise Invalid_argument if [v] is empty. *)

val last : t -> int
(** [last v] is the last element without removing it.
    @raise Invalid_argument if [v] is empty. *)

val clear : t -> unit
(** [clear v] resets the length to zero without shrinking the allocation. *)

val mem : t -> int -> bool
(** [mem v x] is true iff [x] occurs in [v].  Linear scan. *)

val iter : (int -> unit) -> t -> unit

val unsafe_data : t -> int array
(** The backing array: its first [length v] entries are [v]'s elements,
    the rest are garbage, and a growing [push] replaces it.  For index
    loops on hot paths that must not pay a closure or a bounds check per
    element; never write through it. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val to_list : t -> int list

val of_list : int list -> t

val remove_first : t -> int -> bool
(** [remove_first v x] removes the first occurrence of [x] by swapping the
    last element into its slot (order is not preserved).  Returns whether an
    occurrence was found. *)

