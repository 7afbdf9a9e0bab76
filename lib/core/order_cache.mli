(** Client-side LRU cache of pairwise event orders (Section 3.2).

    The monotonicity invariant makes [Before]/[After]/[Same] answers stable
    forever, so they may be cached and shared freely.  [Concurrent] answers
    are {e not} stable (a later [assign_order] can order the pair) and are
    rejected by {!insert}.

    On insertion of [u -> v] the cache pre-fills one transitive hop in each
    direction: for every cached [v -> w] it also records [u -> w], and for
    every cached [t -> u] it records [t -> v], saving future service calls.
    Each direction takes the [prefill_fanout] most recently indexed
    neighbours.

    Entries live in flat [int] arrays (DESIGN.md §17): a lookup or an
    insertion allocates nothing once the arrays have grown, and an
    insertion costs O([prefill_fanout]) table operations. *)

type t

val create : ?prefill_fanout:int -> capacity:int -> unit -> t
(** [capacity] bounds the number of cached pairs exactly: {!size} never
    exceeds it, and an insertion into a full cache first evicts the least
    recently used pair (one eviction per added entry, pre-fills included).
    Storage starts at no more than 1 024 entries and doubles on demand up
    to [capacity].  [prefill_fanout] (default 16) bounds how many
    transitive pre-fills a single insertion may generate per direction.
    @raise Invalid_argument if [capacity <= 0] or [prefill_fanout < 0]. *)

val find : t -> Event_id.t -> Event_id.t -> Order.relation option
(** Cached relation of [(e1, e2)], if any.  A hit refreshes recency.
    [find t e e] is [Some Same] and counts as neither hit nor miss. *)

val insert : t -> Event_id.t -> Event_id.t -> Order.relation -> unit
(** Record a stable relation.  [Concurrent] insertions are ignored. *)

val size : t -> int
val capacity : t -> int

val hits : t -> int
val misses : t -> int
(** {!find} outcome counters. *)

val prefills : t -> int
(** Number of entries added by transitive pre-fill. *)

val evictions : t -> int
(** Number of entries dropped by LRU eviction (capacity pressure). *)

(** One consistent reading of all cache counters, for stats reporting. *)
type stats = {
  stat_size : int;
  stat_capacity : int;
  stat_hits : int;
  stat_misses : int;
  stat_prefills : int;
  stat_evictions : int;
}

val stats : t -> stats

val hit_rate : stats -> float
(** Fraction of {!find} calls answered by the cache; [0.] before any
    lookup. *)

val clear : t -> unit
(** Drop every entry.  The counters are kept. *)
