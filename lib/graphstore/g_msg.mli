(** Messages of the sharded graph stores.

    The [K_*] family serves KronoGraph (Section 3.2): every update and query
    carries its Kronos event; shards order operations against each touched
    vertex's most recent operation with batched [prefer] constraints and
    reconcile reversals by sorted insertion (updates) or version masking
    (queries).

    The [L_*] family serves Lockgraph, the Titan stand-in: isolation comes
    from per-vertex reader/writer locks; lock waits can time out so clients
    can break deadlocks by restarting. *)

open Kronos

(** A vertex-local mutation. *)
type vop =
  | Add_vertex
  | Add_edge of int     (** neighbour vertex id *)
  | Remove_edge of int

type request =
  | K_update of { event : Event_id.t; vertex : int; op : vop }
  | K_neighbors of { event : Event_id.t; vertices : int list }
      (** adjacency of each vertex as visible at the query's event *)
  | L_lock of { txn : int; vertex : int; write : bool }
  | L_unlock_all of { txn : int }
  | L_update of { vertex : int; op : vop }
  | L_neighbors of { vertices : int list }

type response =
  | K_update_done
  | K_neighbors_are of (int * int list) list
  | L_granted
  | L_lock_timeout
  | L_update_done
  | L_unlocked
  | L_neighbors_are of (int * int list) list

type msg =
  | Request of { client : Kronos_simnet.Net.addr; req_id : int; body : request }
  | Response of { req_id : int; body : response }

val service : (request -> float) -> msg -> float option
(** [service cost] is a shard's capacity model for
    {!Kronos_simnet.Net.set_service}: a request occupies the shard's CPU
    for [cost request] virtual seconds; a response costs nothing but still
    waits its turn in the queue. *)

val pp_request : Format.formatter -> request -> unit
