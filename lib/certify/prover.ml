open Kronos

module M = struct
  let scope = Kronos_metrics.scope "certify"
  (* bumped from query-pool reader domains too, so exact under concurrency *)
  let proved = Kronos_metrics.atomic_counter scope "proofs_generated_total"
  let unproved = Kronos_metrics.atomic_counter scope "proofs_unproved_total"
  let visited = Kronos_metrics.atomic_counter scope "prover_visited_total"
end

(* Bound-tracking backward search (DESIGN.md §13).

   A path [source -> ... -> target] is provable only when it is
   {e commitment-closed}: walking it top-down, each event's path link must
   have been folded before the chain position the step above anchored —
   the anchor for event [e] is [e]'s head at position [l_pred_pos] of the
   link above, so only [e]'s links at indices [< l_pred_pos] can be opened
   under it.  (Edges admitted into an upstream event after its downstream
   link was folded are invisible to the downstream commitment; such paths
   exist in the graph but not in the hash chains.)

   The search therefore tracks, per reached event, the best (largest)
   {e bound}: the number of its links usable under some anchor chain back
   to the target.  The target starts with its full chain; following link
   [j < bound e] of [e] reaches [l_pred] with bound [l_pred_pos].  A later
   visit that improves an event's bound re-queues it — more links become
   usable.  Reaching the source with any bound completes: the source's
   chain only grows, so folding its suffix from the recorded position
   forward always lands on the current commitment. *)

type reached = {
  mutable bound : int;               (* best usable prefix of the chain *)
  mutable via : Event_id.t;          (* successor that set the bound *)
  mutable via_link : int;            (* link index of [via] followed *)
  mutable processed : int;           (* links already expanded, -1 if never *)
}

module Chain = Graph.Chain

let prove g ~source ~target =
  if not (Engine.View.digests_enabled g) then None
  else
    match
      ( Engine.View.rank g source, Engine.View.rank g target,
        Engine.View.chain g target )
    with
    | Some rs, Some rt, Some tchain
      when rs < rt && not (Event_id.equal source target) ->
      let tlen = Chain.length tchain in
      let best : (Event_id.t, reached) Hashtbl.t = Hashtbl.create 64 in
      let queue = Queue.create () in
      let start =
        { bound = tlen; via = Event_id.none; via_link = -1; processed = -1 }
      in
      Hashtbl.replace best target start;
      Queue.add target queue;
      let found = ref false in
      let visited = ref 0 in
      while (not !found) && not (Queue.is_empty queue) do
        let e = Queue.pop queue in
        let r = Hashtbl.find best e in
        if r.processed < r.bound then begin
          let from = max r.processed 0 in
          r.processed <- r.bound;
          let c =
            match Engine.View.chain g e with
            | Some c -> c
            | None -> assert false (* queued events are live in [g] *)
          in
          (* never binds: a bound is the target's chain length or a
             link's recorded predecessor position, the predecessor's
             chain length when that link was folded; chains only grow,
             since links are folded at seal and no sealed link is ever
             undone, and a collected event is never queued.  It keeps
             the loop inside the chain if that invariant ever broke. *)
          let hi = min r.bound (Chain.length c) in
          let j = ref from in
          while (not !found) && !j < hi do
            (* the search reads only predecessor ids and positions: it
               hashes nothing *)
            let p = Chain.pred c !j in
            let pred_pos = Chain.pred_pos c !j in
            incr visited;
            (if Event_id.equal p source then begin
                 (* reach the source directly; bound = link position *)
                 let upd =
                   match Hashtbl.find_opt best p with
                   | Some u -> u
                   | None ->
                     let u =
                       { bound = -1; via = Event_id.none; via_link = -1;
                         processed = 0 }
                     in
                     Hashtbl.replace best p u;
                     u
                 in
                 upd.bound <- pred_pos;
                 upd.via <- e;
                 upd.via_link <- !j;
                 found := true
               end
               else begin
                 match Engine.View.rank g p with
                 | Some rp
                   when rp > rs && rp < rt
                        && Engine.View.label_reachable g source p
                           <> Some false ->
                   let improve u =
                     u.bound <- pred_pos;
                     u.via <- e;
                     u.via_link <- !j;
                     Queue.add p queue
                   in
                   (match Hashtbl.find_opt best p with
                    | None ->
                      let u =
                        { bound = -1; via = Event_id.none; via_link = -1;
                          processed = -1 }
                      in
                      Hashtbl.replace best p u;
                      improve u
                    | Some u when pred_pos > u.bound -> improve u
                    | Some _ -> ())
                 | Some _ | None -> ()
                 (* pruned: outside the rank window, refuted by the chain
                    labels (the source provably cannot reach it, so no
                    source path runs through it), or collected — its own
                    chain is gone, so the path cannot continue through it *)
               end);
            incr j
          done
        end
      done;
      Kronos_metrics.Atomic_counter.add M.visited !visited;
      if not !found then begin
        Kronos_metrics.Atomic_counter.incr M.unproved;
        None
      end
      else begin
        (* Backtrack source -> target: each hop prepends the successor whose
           chain the step opens, so the accumulated list comes out top-down
           (the target's step first). *)
        let rec collect acc e =
          if Event_id.equal e target then acc
          else
            let r = Hashtbl.find best e in
            collect ((r.via, r.via_link) :: acc) r.via
        in
        let opened = collect [] source in
        (* Only the emitted steps hash: one compression per suffix
           partner, and two per link below the opened one to refold its
           pre-head. *)
        let chain e =
          match Engine.View.chain g e with
          | Some c -> c
          | None -> assert false (* every path event is live in [g] *)
        in
        let partner_suffix c lo hi =
          (* partners of links [lo..hi-1], in fold order *)
          List.init (hi - lo) (fun k -> Chain.partner c (lo + k))
        in
        let steps =
          List.map
            (fun (e, j) ->
              let c = chain e in
              { Certificate.event = e;
                pred = Chain.pred c j;
                pre = Chain.head_at c j;
                pred_head = Chain.pred_head c j;
                suffix = partner_suffix c (j + 1) (Hashtbl.find best e).bound })
            opened
        in
        let schain = chain source in
        Kronos_metrics.Atomic_counter.incr M.proved;
        Some
          { Certificate.source; target;
            source_commit = Chain.commitment schain;
            target_commit = Chain.commitment tchain;
            steps;
            source_suffix =
              partner_suffix schain (Hashtbl.find best source).bound
                (Chain.length schain) }
      end
    | _ -> None
