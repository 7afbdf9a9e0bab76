(** Briggs–Torczon sparse set over the integers [0, capacity).

    This is the visited-set structure from Section 2.2 / Figure 3 of the
    Kronos paper.  The graph's searches have moved to stamped marks (one
    load per test, see [bench/micro.ml]'s visited-structure ablation); the
    set remains for tracking dirty slots, which must also be iterated.
    Membership of [i] holds iff
    [sparse.(i) < ptr && dense.(sparse.(i)) = i]; insertion writes one slot of
    each array and bumps [ptr]; {!clear} resets [ptr] to zero in constant
    time.  The arrays need no initialization, so a traversal touches memory
    proportional only to the number of vertices visited. *)

type t

val create : int -> t
(** [create capacity] supports members in [0, capacity). *)

val capacity : t -> int

val cardinal : t -> int
(** Number of members currently in the set. *)

val mem : t -> int -> bool
(** @raise Invalid_argument if the element is out of range. *)

val add : t -> int -> unit
(** [add s i] inserts [i].  No-op when already present.
    @raise Invalid_argument if out of range. *)

val clear : t -> unit
(** Constant-time reset. *)

val grow : t -> int -> unit
(** [grow s capacity] raises the capacity, preserving current members.
    No-op if [capacity] is not larger than the current one. *)

val iter : (int -> unit) -> t -> unit
(** Iterate over members in insertion order. *)
