(** Server-side certificate construction (DESIGN.md §13).

    [prove v ~source ~target] searches the committed graph — through an
    {!Engine.View.t}, so proofs can be generated from a live engine or
    from a frozen view on a reader domain (DESIGN.md §14) — for a
    {e commitment-closed} happens-before path [source ⇝ target] and, when
    one exists, packages it as a {!Certificate.t} that
    {!Verifier.verify_against} accepts for the two events' current
    commitments.

    [None] does {b not} refute the relation.  It is returned when digests
    are disabled, an endpoint is stale, the relation does not hold — or
    when it holds but no path is visible through the hash chains: an edge
    admitted into an upstream event {e after} its downstream link was
    folded is invisible to the downstream commitment, and a path through a
    since-collected event has lost that event's chain.  Callers should
    treat [None] as "true but unproved" whenever the plain query answered
    [Before].

    The search is a backward walk over chain links from [target], pruned to
    the open rank window ([Engine.View.rank]), tracking per event the
    largest usable chain prefix.  It reads only each link's predecessor id
    and position, so it computes no SHA-256.  Links store no digests of
    their own, so the steps of a found path are recomputed: a step that
    opens link [j] of an event and folds [s] suffix partners costs [s]
    compressions, plus [2j] to refold its pre-head from the identity
    digest. *)

open Kronos

val prove :
  Engine.View.t ->
  source:Event_id.t ->
  target:Event_id.t ->
  Certificate.t option
