(** Wire-level messages of the Kronos service: one request constructor per
    API call (Table 1 of the paper) and the matching responses.

    Encodings are self-delimiting, so messages can be concatenated inside a
    framed transport stream (see {!Frame}). *)

open Kronos

type request =
  | Create_event
  | Acquire_ref of Event_id.t
  | Release_ref of Event_id.t
  | Query_order of {
      min_epoch : int64;
      pairs : (Event_id.t * Event_id.t) list;
    }
      (** the reply is an {!Orders} carrying the view epoch it was answered
          at (DESIGN.md §14).  [min_epoch] is the client's consistency
          demand, [0L] for [`Latest]: a server whose view is older answers
          anyway (its epoch exposes the staleness) and the client escalates
          to a fresher replica *)
  | Assign_order of Order.spec list
      (** the reply ({!Outcomes}) carries the post-apply epoch, so the
          caller can demand read-your-writes ([`At_least]) from subsequent
          queries *)
  | Query_proof of (Event_id.t * Event_id.t)
      (** like a one-pair {!Query_order}, but when the answer is
          [Before]/[After] the server also attempts a happens-before
          certificate the client can check against the endpoint
          commitments alone (DESIGN.md §13) *)

type response =
  | Event_created of Event_id.t
  | Ref_acquired
  | Ref_released of int   (** number of events garbage-collected *)
  | Orders of { epoch : int64; rels : Order.relation list }
      (** answer to {!Query_order}: the relations plus the view epoch they
          were computed against *)
  | Outcomes of { epoch : int64; outs : Order.outcome list }
      (** answer to {!Assign_order}: the outcomes plus
          the engine epoch after the batch applied (deterministic, so
          replicas agree) *)
  | Rejected of Order.assign_error
  | Proof_is of {
      relation : Order.relation;
      cert : Kronos_certify.Certificate.t option;
    }
      (** answer to {!Query_proof}; [cert = None] when the relation is
          [Concurrent]/[Same], when digests are disabled, or when the
          relation holds but no commitment-closed path exists ("true but
          unproved" — see {!Kronos_certify.Prover}) *)

val encode_request : request -> string
val decode_request : string -> request
(** @raise Codec.Decode_error on malformed input.  Tags 3 and 4 (the
    retired unstamped query and assign) and 5 (the retired guarded
    assign) are malformed. *)

val encode_response : response -> string
val decode_response : string -> response
(** @raise Codec.Decode_error on malformed input, including the retired
    tags 3 and 4 and the retired error tag 3 inside {!Rejected}. *)

val request_equal : request -> request -> bool
val response_equal : response -> response -> bool

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
