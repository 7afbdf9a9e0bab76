open Kronos
open Kronos_wire
module Proxy = Kronos_replication.Proxy

module M = struct
  let scope = Kronos_metrics.scope "client"
  let hits = Kronos_metrics.counter scope "cache_hits_total"
  let misses = Kronos_metrics.counter scope "cache_misses_total"
  let revalidations = Kronos_metrics.counter scope "stale_revalidations_total"

  let op_seconds op =
    Kronos_metrics.histogram scope ~labels:[ ("op", op) ] "op_seconds"

  let create_event = op_seconds "create_event"
  let acquire_ref = op_seconds "acquire_ref"
  let release_ref = op_seconds "release_ref"
  let query_order = op_seconds "query_order"
  let query_verified = op_seconds "query_verified"
  let assign_order = op_seconds "assign_order"
  let proofs_checked = Kronos_metrics.counter scope "proofs_checked_total"
  let proofs_rejected = Kronos_metrics.counter scope "proofs_rejected_total"
  let proof_prefills = Kronos_metrics.counter scope "proof_prefill_edges_total"
end

(* Wrap a callback so the wall-clock time until it fires lands in [h].
   With metrics disabled the callback is returned untouched — no clock
   read, no closure on the hot path. *)
let timed h k =
  if Kronos_metrics.enabled () then begin
    let t0 = Unix.gettimeofday () in
    fun r ->
      Kronos_metrics.Histogram.observe h (Unix.gettimeofday () -. t0);
      k r
  end
  else k

type t = {
  proxy : Proxy.t;
  cache : Order_cache.t option;
  mutable server_queries : int;
  mutable stale_revalidations : int;
  mutable last_epoch : int64;
      (* highest view epoch observed in any epoch-stamped reply; what
         [`At_least (last_epoch t)] demands for read-your-writes *)
  mutable epoch_retries : int;
}

let create ~net ~addr ~coordinator ?(cache_capacity = 65536) ?request_timeout () =
  let proxy = Proxy.create ~net ~addr ~coordinator ?request_timeout () in
  let cache =
    if cache_capacity > 0 then Some (Order_cache.create ~capacity:cache_capacity ())
    else None
  in
  { proxy; cache; server_queries = 0; stale_revalidations = 0;
    last_epoch = 0L; epoch_retries = 0 }

let cache t = t.cache
let cache_stats t = Option.map Order_cache.stats t.cache
let server_queries t = t.server_queries
let stale_revalidations t = t.stale_revalidations
let last_epoch t = t.last_epoch
let epoch_retries t = t.epoch_retries

let note_epoch t e = if e > t.last_epoch then t.last_epoch <- e

let unexpected = Error.Rejected (Order.Unknown_event Event_id.none)

(* Lift a proxy response into a decoded message for [k], translating
   transport-level timeouts into the unified {!Error.t}.  A reply that does
   not decode fails the call, never the process: the callback runs inside
   the event loop's frame handler. *)
let decoded k = function
  | Error (`Timeout as e) -> k (Error (Error.of_proxy e))
  | Ok resp -> (
    match Message.decode_response resp with
    | msg -> k (Ok msg)
    | exception Codec.Decode_error _ -> k (Error unexpected))

let create_event t ?timeout callback =
  let callback = timed M.create_event callback in
  Proxy.write t.proxy ?timeout (Message.encode_request Message.Create_event)
    (decoded (function
      | Ok (Message.Event_created e) -> callback (Ok e)
      | Ok _ -> callback (Error unexpected)
      | Error e -> callback (Error e)))

let acquire_ref t ?timeout e callback =
  let callback = timed M.acquire_ref callback in
  Proxy.write t.proxy ?timeout (Message.encode_request (Message.Acquire_ref e))
    (decoded (function
      | Ok Message.Ref_acquired -> callback (Ok ())
      | Ok (Message.Rejected err) -> callback (Error (Error.Rejected err))
      | Ok _ -> callback (Error unexpected)
      | Error e -> callback (Error e)))

let release_ref t ?timeout e callback =
  let callback = timed M.release_ref callback in
  Proxy.write t.proxy ?timeout (Message.encode_request (Message.Release_ref e))
    (decoded (function
      | Ok (Message.Ref_released n) -> callback (Ok n)
      | Ok (Message.Rejected err) -> callback (Error (Error.Rejected err))
      | Ok _ -> callback (Error unexpected)
      | Error e -> callback (Error e)))

let cache_find t e1 e2 =
  match t.cache with None -> None | Some c -> Order_cache.find c e1 e2

let cache_insert t e1 e2 rel =
  match t.cache with None -> () | Some c -> Order_cache.insert c e1 e2 rel

(* Issue one epoch-stamped query to the service for [pairs]; [target]
   selects the replica.  A reply from a replica whose view is behind
   [min_epoch] is retried once at the tail — the tail applied the write
   that produced the demand, so it can never be behind it (DESIGN.md §14).
   The callback receives one relation per pair plus the reply epoch; a
   reply of any other length fails the call. *)
let rec send_query t ?timeout ~min_epoch ~target pairs callback =
  t.server_queries <- t.server_queries + 1;
  Proxy.read t.proxy ?timeout ~target
    (Message.encode_request (Message.Query_order { min_epoch; pairs }))
    (decoded (function
      | Ok (Message.Orders { epoch; rels })
        when List.compare_lengths rels pairs = 0 ->
        note_epoch t epoch;
        if epoch < min_epoch && target <> Proxy.Tail then begin
          t.epoch_retries <- t.epoch_retries + 1;
          send_query t ?timeout ~min_epoch ~target:Proxy.Tail pairs callback
        end
        else callback (Ok (rels, epoch))
      | Ok (Message.Rejected err) -> callback (Error (Error.Rejected err))
      | Ok _ -> callback (Error unexpected)
      | Error e -> callback (Error e)))

let query_order t ?timeout ?(stale = false) ?(revalidate = true)
    ?(consistency = `Latest) pairs callback =
  let callback = timed M.query_order callback in
  let min_epoch = match consistency with `Latest -> 0L | `At_least e -> e in
  (* Resolve from the cache first. *)
  let n = List.length pairs in
  let answers = Array.make n None in
  let misses =
    List.concat
      (List.mapi
         (fun i (e1, e2) ->
           match cache_find t e1 e2 with
           | Some rel ->
             answers.(i) <- Some rel;
             []
           | None -> [ (i, (e1, e2)) ])
         pairs)
  in
  Kronos_metrics.Counter.add M.hits (n - List.length misses);
  Kronos_metrics.Counter.add M.misses (List.length misses);
  let finish () =
    let rels =
      Array.to_list answers
      |> List.map (function Some r -> r | None -> assert false)
    in
    callback (Ok rels)
  in
  let record (i, (e1, e2)) rel =
    answers.(i) <- Some rel;
    cache_insert t e1 e2 rel
  in
  match misses with
  | [] -> finish ()
  | _ ->
    let miss_pairs = List.map snd misses in
    let target = if stale then Proxy.Any else Proxy.Tail in
    send_query t ?timeout ~min_epoch ~target miss_pairs (fun result ->
        match result with
        | Error err -> callback (Error err)
        | Ok (rels, _epoch) ->
          let answered = List.combine misses rels in
          if (not stale) || not revalidate then begin
            List.iter
              (fun ((m, rel) : (int * (Event_id.t * Event_id.t)) * Order.relation) ->
                match rel with
                | Order.Concurrent when stale ->
                  (* unvalidated concurrent answer: report, do not cache *)
                  answers.(fst m) <- Some rel
                | _ -> record m rel)
              answered;
            finish ()
          end
          else begin
            (* Ordered answers from a stale replica are definitive; only
               Concurrent needs tail validation (Section 2.5). *)
            let unresolved =
              List.filter_map
                (fun (m, rel) ->
                  match (rel : Order.relation) with
                  | Concurrent -> Some m
                  | Before | After | Same ->
                    record m rel;
                    None)
                answered
            in
            match unresolved with
            | [] -> finish ()
            | _ ->
              t.stale_revalidations <- t.stale_revalidations + List.length unresolved;
              Kronos_metrics.Counter.add M.revalidations (List.length unresolved);
              send_query t ?timeout ~min_epoch ~target:Proxy.Tail
                (List.map snd unresolved)
                (fun result ->
                  match result with
                  | Error err -> callback (Error err)
                  | Ok (rels, _epoch) ->
                    List.iter2 (fun m rel -> record m rel) unresolved rels;
                    finish ())
          end)

(* Cache-bypassing epoch-stamped query: every pair goes to the service,
   and the callback learns the exact view epoch the answers reflect.
   Answers still feed the cache (they are facts at that epoch, and stable
   ones stay true forever). *)
let query_order_e t ?timeout ?(stale = false) ?(consistency = `Latest) pairs
    callback =
  let callback = timed M.query_order callback in
  let min_epoch = match consistency with `Latest -> 0L | `At_least e -> e in
  let target = if stale then Proxy.Any else Proxy.Tail in
  send_query t ?timeout ~min_epoch ~target pairs (fun result ->
      match result with
      | Error err -> callback (Error err)
      | Ok (rels, epoch) ->
        List.iter2
          (fun (e1, e2) rel ->
            match (rel : Order.relation) with
            | Before | After | Same -> cache_insert t e1 e2 rel
            | Concurrent -> ())
          pairs rels;
        callback (Ok (rels, epoch)))

(* A verified certificate authenticates every edge on its path, not just
   the queried endpoints: each one becomes a free stable cache entry, and
   the cache's own transitive pre-fill multiplies them further. *)
let prefill_from_cert t (cert : Kronos_certify.Certificate.t) =
  let edges = Kronos_certify.Certificate.path_edges cert in
  Kronos_metrics.Counter.add M.proof_prefills (List.length edges);
  List.iter (fun (pred, event) -> cache_insert t pred event Order.Before) edges

let query_verified t ?timeout ?(stale = false) e1 e2 callback =
  let callback = timed M.query_verified callback in
  let target = if stale then Proxy.Any else Proxy.Tail in
  t.server_queries <- t.server_queries + 1;
  Proxy.read t.proxy ?timeout ~target
    (Message.encode_request (Message.Query_proof (e1, e2)))
    (decoded (function
      | Ok (Message.Proof_is { relation; cert }) ->
        (match cert with
         | None ->
           (* unproved: fall back to plain-query trust rules — ordered
              answers are definitive even from a stale replica, an
              unvalidated Concurrent is reported but not cached *)
           (match relation with
            | Order.Before | Order.After | Order.Same ->
              cache_insert t e1 e2 relation
            | Order.Concurrent -> ());
           callback (Ok (relation, None))
         | Some c ->
           Kronos_metrics.Counter.incr M.proofs_checked;
           let endpoints_ok =
             match relation with
             | Order.Before ->
               Event_id.equal c.source e1 && Event_id.equal c.target e2
             | Order.After ->
               Event_id.equal c.source e2 && Event_id.equal c.target e1
             | Order.Concurrent | Order.Same -> false
           in
           if not endpoints_ok then begin
             Kronos_metrics.Counter.incr M.proofs_rejected;
             callback
               (Error
                  (Error.Proof_invalid
                     "certificate endpoints do not match the query"))
           end
           else begin
             match Kronos_certify.Verifier.verify c with
             | Error m ->
               Kronos_metrics.Counter.incr M.proofs_rejected;
               callback (Error (Error.Proof_invalid m))
             | Ok () ->
               cache_insert t e1 e2 relation;
               prefill_from_cert t c;
               callback (Ok (relation, Some c))
           end)
      | Ok (Message.Rejected err) -> callback (Error (Error.Rejected err))
      | Ok _ -> callback (Error unexpected)
      | Error e -> callback (Error e)))

(* Every pair of a successful batch now has a committed order we can
   cache: Applied/Already mean the requested direction holds; Reversed
   means the opposite one does. *)
let cache_outcomes t specs outs =
  List.iter2
    (fun (s : Order.spec) out ->
      let before, after =
        match s.direction with
        | Order.Happens_before -> (s.left, s.right)
        | Order.Happens_after -> (s.right, s.left)
      in
      match (out : Order.outcome) with
      | Applied | Already ->
        if not (Event_id.equal before after) then
          cache_insert t before after Order.Before
      | Reversed -> cache_insert t after before Order.Before)
    specs outs

(* The ack's epoch covers the batch, so a subsequent
   [`At_least (last_epoch t)] query reads its own writes.  An ack whose
   outcome count differs from the batch fails the call. *)
let assign_order t ?timeout specs callback =
  let callback = timed M.assign_order callback in
  Proxy.write t.proxy ?timeout
    (Message.encode_request (Message.Assign_order specs))
    (decoded (function
      | Ok (Message.Outcomes { epoch; outs })
        when List.compare_lengths outs specs = 0 ->
        note_epoch t epoch;
        cache_outcomes t specs outs;
        callback (Ok outs)
      | Ok (Message.Rejected err) -> callback (Error (Error.Rejected err))
      | Ok _ -> callback (Error unexpected)
      | Error e -> callback (Error e)))
