open Kronos_simnet
module Transport = Kronos_transport.Transport

type addr = Transport.addr

type config = { version : int; chain : addr list }

type msg =
  | Client_write of { client : addr; req_id : int; cmd : string }
  | Client_read of { client : addr; req_id : int; cmd : string }
  | Forward of { seq : int; client : addr; req_id : int; cmd : string }
  | Ack of { seq : int }
  | Reply of { req_id : int; resp : string }
  | Get_config of { client : addr }
  | Config_is of config
  | New_config of { config : config; fresh : (addr * int) option }
  | Ping
  | Pong of { last_applied : int }
  | Sync_state of { entries : (int * addr * int * string) list }
  | Sync_snapshot of {
      seq : int;
      snapshot : string;
      entries : (int * addr * int * string) list;
    }
  | Join of { addr : addr; last_applied : int }
  | Get_stats of { client : addr }
  | Stats_is of { samples : (string * float) list }

let log_src = Logs.Src.create "kronos.chain" ~doc:"chain replication"

module M = struct
  let scope = Kronos_metrics.scope "chain"
  let applied = Kronos_metrics.counter scope "entries_applied_total"
  let acks = Kronos_metrics.counter scope "acks_total"
  let transfers = Kronos_metrics.counter scope "state_transfers_total"
  let installs = Kronos_metrics.counter scope "snapshot_installs_total"
  let reconfigs = Kronos_metrics.counter scope "reconfigurations_total"
end

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Position helpers over a chain configuration. *)
let head_of cfg = match cfg.chain with a :: _ -> Some a | [] -> None

let successor_of cfg addr =
  let rec loop = function
    | a :: (b :: _ as rest) -> if a = addr then Some b else loop rest
    | [ _ ] | [] -> None
  in
  loop cfg.chain

let predecessor_of cfg addr =
  let rec loop = function
    | a :: (b :: _ as rest) -> if b = addr then Some a else loop rest
    | [ _ ] | [] -> None
  in
  loop cfg.chain

let is_tail cfg addr =
  match List.rev cfg.chain with a :: _ -> a = addr | [] -> false

let encode_entry_payload ~client ~req_id ~cmd =
  let e = Kronos_wire.Codec.encoder () in
  Kronos_wire.Codec.put_i64 e (Int64.of_int client);
  Kronos_wire.Codec.put_i64 e (Int64.of_int req_id);
  Kronos_wire.Codec.put_string e cmd;
  Kronos_wire.Codec.to_string e

let decode_entry_payload s =
  let d = Kronos_wire.Codec.decoder s in
  let client = Int64.to_int (Kronos_wire.Codec.get_i64 d) in
  let req_id = Int64.to_int (Kronos_wire.Codec.get_i64 d) in
  let cmd = Kronos_wire.Codec.get_string d in
  Kronos_wire.Codec.expect_end d;
  (client, req_id, cmd)

module Replica = struct
  type entry = { seq : int; client : addr; req_id : int; cmd : string }

  type persist = {
    log_entry : seq:int -> client:addr -> req_id:int -> cmd:string -> unit;
    commit : upto:int -> unit;
    snapshot : upto:int -> int * string;
    tail : since:int -> (int * addr * int * string) list option;
    install : seq:int -> string -> unit;
  }

  type t = {
    net : msg Transport.t;
    addr : addr;
    apply : string -> string;
    read_async :
      (client:addr -> req_id:int -> cmd:string -> reply:(string -> unit) ->
       bool)
      option;
    (* offload hook for local reads (DESIGN.md §14): when it returns [true]
       it has taken ownership of the request and will call [reply] later
       (e.g. from a reader-domain completion); [false] falls back to the
       synchronous [apply] path *)
    persist : persist;
    mutable cfg : config;
    mutable last_applied : int;
    replies : (addr * int, int * string) Hashtbl.t;
      (* (client, req_id) -> (seq, response): deduplicates retransmissions
         and re-answers them *)
    mutable acked : int;                     (* highest seq an Ack covered *)
    pending : entry Queue.t;                 (* forwarded, unacked; seq asc *)
    stash : (int, entry) Hashtbl.t;          (* out-of-order forwards *)
    mutable removed : bool;
    mutable installs : int;                  (* Sync_snapshot transfers taken *)
    mutable commit_due : bool;               (* a deferred commit is queued *)
  }

  let addr t = t.addr
  let last_applied t = t.last_applied
  let config t = t.cfg
  let pending_count t = Queue.length t.pending
  let snapshot_installs t = t.installs

  let is_removed t = t.removed

  let crash t = Transport.unregister t.net t.addr

  let send t dst msg = Transport.send t.net ~src:t.addr ~dst msg

  let announce_join t ~coordinator =
    send t coordinator (Join { addr = t.addr; last_applied = t.last_applied })

  let to_successor t msg =
    match successor_of t.cfg t.addr with
    | Some succ -> send t succ msg
    | None -> ()

  let to_predecessor t msg =
    match predecessor_of t.cfg t.addr with
    | Some pred -> send t pred msg
    | None -> ()

  (* Apply a command locally, record its reply for deduplication and
     re-replies, and log it at its sequence number (group-committed at the
     transport's next deferral point, see [handle]); the log is also what
     later state transfers ship. *)
  let apply_entry t entry =
    let resp = t.apply entry.cmd in
    Kronos_metrics.Counter.incr M.applied;
    t.last_applied <- entry.seq;
    Hashtbl.replace t.replies (entry.client, entry.req_id) (entry.seq, resp);
    t.persist.log_entry ~seq:entry.seq ~client:entry.client
      ~req_id:entry.req_id ~cmd:entry.cmd;
    resp

  (* Post-application propagation: tail replies and acks; others forward and
     track the entry as pending. *)
  let propagate t entry resp =
    if is_tail t.cfg t.addr then begin
      send t entry.client (Reply { req_id = entry.req_id; resp });
      to_predecessor t (Ack { seq = entry.seq })
    end
    else begin
      Queue.push entry t.pending;
      to_successor t
        (Forward { seq = entry.seq; client = entry.client;
                   req_id = entry.req_id; cmd = entry.cmd })
    end

  let rec drain_stash t =
    match Hashtbl.find_opt t.stash (t.last_applied + 1) with
    | None -> ()
    | Some entry ->
      Hashtbl.remove t.stash entry.seq;
      let resp = apply_entry t entry in
      propagate t entry resp;
      drain_stash t

  let handle_duplicate_forward t (entry : entry) =
    if is_tail t.cfg t.addr then begin
      (match Hashtbl.find_opt t.replies (entry.client, entry.req_id) with
       | Some (_, resp) ->
         send t entry.client (Reply { req_id = entry.req_id; resp })
       | None -> ());
      to_predecessor t (Ack { seq = entry.seq })
    end
    else
      to_successor t
        (Forward { seq = entry.seq; client = entry.client;
                   req_id = entry.req_id; cmd = entry.cmd })

  let handle_forward t entry =
    if entry.seq <= t.last_applied then handle_duplicate_forward t entry
    else if entry.seq = t.last_applied + 1 then begin
      let resp = apply_entry t entry in
      propagate t entry resp;
      drain_stash t
    end
    else Hashtbl.replace t.stash entry.seq entry

  let handle_write t ~client ~req_id ~cmd =
    match head_of t.cfg with
    | None -> ()
    | Some head when head <> t.addr ->
      (* stale client: relay to the real head *)
      send t head (Client_write { client; req_id; cmd })
    | Some _ -> (
        match Hashtbl.find_opt t.replies (client, req_id) with
        | Some (seq, resp) ->
          (* Retransmission of an already-sequenced request.  Once an Ack
             covered [seq], every replica has applied and committed it, so
             the head's own reply is final — and the tail may not hold one
             (a tail that joined by snapshot has none below it). *)
          if is_tail t.cfg t.addr || seq <= t.acked then
            send t client (Reply { req_id; resp })
          else to_successor t (Forward { seq; client; req_id; cmd })
        | None ->
          let entry = { seq = t.last_applied + 1; client; req_id; cmd } in
          let resp = apply_entry t entry in
          propagate t entry resp)

  let handle_ack t seq =
    Kronos_metrics.Counter.incr M.acks;
    t.acked <- max t.acked seq;
    (* acks are cumulative and [pending] is in seq order: drop the
       acknowledged prefix *)
    while
      (not (Queue.is_empty t.pending)) && (Queue.peek t.pending).seq <= seq
    do
      ignore (Queue.pop t.pending)
    done;
    to_predecessor t (Ack { seq })

  (* State transfer to a joining successor that has already applied
     [applied] commands: the log tail above [applied] when the log still
     holds it, otherwise — the range was truncated under a snapshot — a
     snapshot plus the log above it. *)
  let send_sync t succ ~applied =
    Kronos_metrics.Counter.incr M.transfers;
    let p = t.persist in
    match p.tail ~since:applied with
    | Some entries -> send t succ (Sync_state { entries })
    | None ->
      let seq, snapshot = p.snapshot ~upto:t.last_applied in
      let entries = Option.value (p.tail ~since:seq) ~default:[] in
      send t succ (Sync_snapshot { seq; snapshot; entries })

  let handle_new_config t new_cfg fresh =
    if new_cfg.version > t.cfg.version then begin
      Kronos_metrics.Counter.incr M.reconfigs;
      let old_succ = successor_of t.cfg t.addr in
      t.cfg <- new_cfg;
      if not (List.mem t.addr new_cfg.chain) then t.removed <- true
      else begin
        let new_succ = successor_of new_cfg t.addr in
        (match new_succ with
         | Some succ when old_succ <> Some succ ->
           (* A fresh tail needs its missing history before anything else
              on this (FIFO) link; a surviving successor only needs our
              unacknowledged entries. *)
           (match fresh with
            | Some (a, applied) when a = succ -> send_sync t succ ~applied
            | Some _ | None -> ());
           Queue.iter
             (fun e ->
               send t succ
                 (Forward { seq = e.seq; client = e.client;
                            req_id = e.req_id; cmd = e.cmd }))
             t.pending
         | Some _ | None -> ());
        if is_tail new_cfg t.addr && not (Queue.is_empty t.pending) then begin
          (* We just became tail: close out the in-flight entries. *)
          Queue.iter
            (fun e ->
              match Hashtbl.find_opt t.replies (e.client, e.req_id) with
              | Some (_, resp) ->
                send t e.client (Reply { req_id = e.req_id; resp })
              | None -> ())
            t.pending;
          let last = Queue.fold (fun _ e -> e.seq) 0 t.pending in
          t.acked <- max t.acked last;
          to_predecessor t (Ack { seq = last });
          Queue.clear t.pending
        end
      end
    end

  (* Transferred log entries: apply the run that continues [last_applied];
     anything past a gap waits in [stash] like an early forward, until the
     missing entries arrive. *)
  let handle_sync t entries =
    List.iter
      (fun (seq, client, req_id, cmd) ->
        let entry = { seq; client; req_id; cmd } in
        if seq = t.last_applied + 1 then ignore (apply_entry t entry)
        else if seq > t.last_applied then Hashtbl.replace t.stash seq entry)
      entries;
    drain_stash t

  (* A snapshot transfer: jump the local state machine to [seq], then apply
     the log entries above it. *)
  let handle_sync_snapshot t ~seq ~snapshot ~entries =
    if seq > t.last_applied then begin
      t.persist.install ~seq snapshot;
      t.installs <- t.installs + 1;
      Kronos_metrics.Counter.incr M.installs;
      t.last_applied <- seq;
      (* bookkeeping for the snapshotted prefix is gone with the old
         engine; it is no longer replayable, so drop it *)
      Hashtbl.reset t.replies;
      Hashtbl.reset t.stash
    end;
    handle_sync t entries

  let handle t ~src:_ msg =
    if not t.removed then
      match msg with
      | Client_write { client; req_id; cmd } -> handle_write t ~client ~req_id ~cmd
      | Client_read { client; req_id; cmd } -> (
        let reply resp = send t client (Reply { req_id; resp }) in
        match t.read_async with
        | Some offload when offload ~client ~req_id ~cmd ~reply -> ()
        | Some _ | None -> reply (t.apply cmd))
      | Forward { seq; client; req_id; cmd } ->
        handle_forward t { seq; client; req_id; cmd }
      | Ack { seq } -> handle_ack t seq
      | New_config { config; fresh } -> handle_new_config t config fresh
      | Ping -> () (* answered below, even when removed *)
      | Sync_state { entries } -> handle_sync t entries
      | Sync_snapshot { seq; snapshot; entries } ->
        handle_sync_snapshot t ~seq ~snapshot ~entries
      | Reply _ | Config_is _ | Get_config _ | Pong _ | Join _ | Get_stats _
      | Stats_is _ ->
        Log.debug (fun m -> m "replica %d: unexpected message" t.addr)

  let handle t ~src msg =
    match msg with
    | Ping -> send t src (Pong { last_applied = t.last_applied })
    | Get_stats { client } ->
      (* Answered even when removed, like Ping: stats are an admin plane,
         not part of the replicated state machine.  The registry is
         process-wide, so the reply covers every layer of this daemon. *)
      send t client (Stats_is { samples = Kronos_metrics.samples () })
    | _ -> (
      let before = t.last_applied in
      handle t ~src msg;
      (* Group commit: one durability flush per dispatch pass, covering
         every command the pass applied.  Replies, acks and forwards are
         only queued here, and the transport sends nothing a pass queued
         before its deferred work has run. *)
      if t.last_applied > before && not t.commit_due then begin
        t.commit_due <- true;
        Transport.defer t.net (fun () ->
            t.commit_due <- false;
            t.persist.commit ~upto:t.last_applied)
      end)

  let restore t ~last_applied ~entries =
    if t.last_applied <> 0 || Hashtbl.length t.replies > 0 then
      invalid_arg "Replica.restore: replica already has state";
    t.last_applied <- last_applied;
    List.iter
      (fun (seq, client, req_id, resp) ->
        Hashtbl.replace t.replies (client, req_id) (seq, resp))
      entries

  let create ~net ~addr ~apply ?read_async
      ?(config = { version = 0; chain = [] }) ?service ~persist () =
    let t =
      {
        net;
        addr;
        apply;
        read_async;
        persist;
        cfg = config;
        last_applied = 0;
        replies = Hashtbl.create 1024;
        acked = 0;
        pending = Queue.create ();
        stash = Hashtbl.create 16;
        removed = false;
        installs = 0;
        commit_due = false;
      }
    in
    let deliver =
      match service with
      | None -> fun ~src msg -> handle t ~src msg
      | Some cost ->
        let sim =
          match Transport.sim net with
          | Some sim -> sim
          | None ->
            invalid_arg
              "Replica.create: service-time modelling requires a simulated \
               transport"
        in
        let queue = Service_queue.create sim in
        fun ~src msg ->
          (* heartbeats bypass the work queue, as a dedicated heartbeat
             thread would: saturation must not look like a crash *)
          (match (msg : msg) with
           | Ping -> handle t ~src msg
           | _ ->
             Service_queue.submit_fixed queue ~cost (fun () ->
                 handle t ~src msg))
    in
    Transport.register net addr deliver;
    t
end

module Coordinator = struct
  type t = {
    net : msg Transport.t;
    addr : addr;
    mutable cfg : config;
    (* the fresh-join marker of the latest reconfiguration, kept so the
       periodic re-broadcast stays identical to the original announcement *)
    mutable last_fresh : (addr * int) option;
    last_pong : (addr, float) Hashtbl.t;
    ping_interval : float;
    failure_timeout : float;
  }

  let addr t = t.addr
  let config t = t.cfg

  let broadcast t fresh =
    t.last_fresh <- fresh;
    List.iter
      (fun a ->
        Transport.send t.net ~src:t.addr ~dst:a (New_config { config = t.cfg; fresh }))
      t.cfg.chain

  let check_failures t =
    let now = Transport.now t.net in
    let dead =
      List.filter
        (fun a ->
          match Hashtbl.find_opt t.last_pong a with
          | Some seen -> now -. seen > t.failure_timeout
          | None -> false)
        t.cfg.chain
    in
    if dead <> [] then begin
      Log.info (fun m ->
          m "coordinator: removing %s from chain"
            (String.concat "," (List.map string_of_int dead)));
      t.cfg <-
        { version = t.cfg.version + 1;
          chain = List.filter (fun a -> not (List.mem a dead)) t.cfg.chain };
      List.iter (Hashtbl.remove t.last_pong) dead;
      broadcast t None
    end

  let tick t =
    check_failures t;
    (* Re-announce the configuration every tick: announcements can be lost
       and replicas version-check them, so this is idempotent. *)
    broadcast t t.last_fresh;
    List.iter (fun a -> Transport.send t.net ~src:t.addr ~dst:a Ping) t.cfg.chain

  (* Integrate a replica at the tail, announcing how much it has already
     applied so the current tail ships the smallest sufficient transfer.
     Re-announcing an existing member (a retried [Join]) is answered with a
     plain re-broadcast instead of a reconfiguration. *)
  let integrate t ~addr:a ~last_applied =
    if List.mem a t.cfg.chain then broadcast t t.last_fresh
    else begin
      t.cfg <- { version = t.cfg.version + 1; chain = t.cfg.chain @ [ a ] };
      Hashtbl.replace t.last_pong a (Transport.now t.net);
      broadcast t (Some (a, last_applied))
    end

  let handle t ~src msg =
    match msg with
    | Pong _ -> Hashtbl.replace t.last_pong src (Transport.now t.net)
    | Get_config { client } ->
      Transport.send t.net ~src:t.addr ~dst:client (Config_is t.cfg)
    | Join { addr; last_applied } -> integrate t ~addr ~last_applied
    | Get_stats { client } ->
      Transport.send t.net ~src:t.addr ~dst:client
        (Stats_is { samples = Kronos_metrics.samples () })
    | Client_write _ | Client_read _ | Forward _ | Ack _ | Reply _
    | Config_is _ | New_config _ | Ping | Sync_state _ | Sync_snapshot _
    | Stats_is _ ->
      Log.debug (fun m -> m "coordinator: unexpected message")

  let create ~net ~addr ~chain ?(ping_interval = 0.2) ?(failure_timeout = 1.0) () =
    let t =
      {
        net;
        addr;
        cfg = { version = 1; chain };
        last_fresh = None;
        last_pong = Hashtbl.create 8;
        ping_interval;
        failure_timeout;
      }
    in
    let now = Transport.now net in
    List.iter (fun a -> Hashtbl.replace t.last_pong a now) chain;
    Transport.register net addr (fun ~src msg -> handle t ~src msg);
    broadcast t None;
    ignore (Transport.every net ~period:ping_interval (fun () -> tick t));
    t

  let join t replica =
    let a = Replica.addr replica in
    if List.mem a t.cfg.chain then invalid_arg "Coordinator.join: already a member";
    integrate t ~addr:a ~last_applied:(Replica.last_applied replica)
end
