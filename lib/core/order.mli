(** Vocabulary types for the Kronos ordering API (Table 1 of the paper). *)

(** Result of a [query_order] on a pair [(e1, e2)]. *)
type relation =
  | Before      (** e1 happens before e2. *)
  | After       (** e2 happens before e1. *)
  | Concurrent  (** no path either way: the application may pick. *)
  | Same        (** e1 and e2 are the same event. *)

(** How hard a requested ordering constraint is (Section 2.2). *)
type kind =
  | Must    (** abort the whole batch if the constraint cannot hold *)
  | Prefer  (** accept a reversal if prior constraints force it *)

(** Per-pair outcome of a successful [assign_order] batch. *)
type outcome =
  | Applied   (** a new happens-before edge was recorded *)
  | Already   (** the requested order was already implied; nothing added *)
  | Reversed  (** prefer only: the opposite order was already committed *)

(** Why an [assign_order] batch was aborted (no side effects occurred). *)
type assign_error =
  | Must_violated of int
      (** index (in the request list) of the [Must] pair whose requested
          order contradicts the existing graph *)
  | Must_self of int
      (** index of a [Must] pair relating an event to itself *)
  | Unknown_event of Event_id.t
      (** an argument does not name a live event *)

type direction =
  | Happens_before  (** left operand precedes right operand *)
  | Happens_after   (** right operand precedes left operand *)

(** One requested constraint in an [assign_order] batch, relating [left]
    to [right].  Build specs with the smart constructors below rather
    than record literals — [Order.must_before a b] reads as "a must
    happen before b". *)
type spec = {
  left : Event_id.t;
  direction : direction;
  kind : kind;
  right : Event_id.t;
}

val constrain :
  kind:kind -> direction:direction -> Event_id.t -> Event_id.t -> spec
(** [constrain ~kind ~direction a b] is the generic constructor behind the
    four readable forms below. *)

val must_before : Event_id.t -> Event_id.t -> spec
(** [must_before a b]: [a] must happen before [b]; the batch aborts if the
    graph already implies the opposite. *)

val must_after : Event_id.t -> Event_id.t -> spec
(** [must_after a b]: [a] must happen after [b]. *)

val prefer_before : Event_id.t -> Event_id.t -> spec
(** [prefer_before a b]: order [a] before [b] unless prior constraints
    force the reverse, in which case the outcome is [Reversed]. *)

val prefer_after : Event_id.t -> Event_id.t -> spec
(** [prefer_after a b]: order [a] after [b], accepting a reversal. *)

val flip_relation : relation -> relation
(** [flip_relation r] is the relation of [(e2, e1)] given that of [(e1, e2)]. *)

val relation_equal : relation -> relation -> bool
val kind_equal : kind -> kind -> bool
val outcome_equal : outcome -> outcome -> bool
val spec_equal : spec -> spec -> bool
val assign_error_equal : assign_error -> assign_error -> bool

val pp_relation : Format.formatter -> relation -> unit
val pp_kind : Format.formatter -> kind -> unit
val pp_outcome : Format.formatter -> outcome -> unit
val pp_assign_error : Format.formatter -> assign_error -> unit
val pp_direction : Format.formatter -> direction -> unit
val pp_spec : Format.formatter -> spec -> unit
