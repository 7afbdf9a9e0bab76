open Kronos
module Net = Kronos_simnet.Net

type key_state = {
  mutable value : string option;
  mutable last_writer : Event_id.t option;
  mutable last_readers : Event_id.t list;  (* readers since the last write *)
  mutable pinned_by : int option;          (* undecided transaction id *)
  mutable history : (Event_id.t * string) list;  (* newest first *)
  (* lock manager state *)
  mutable lock_owner : int option;
  mutable lock_waiters : (int * (unit -> unit)) list;  (* FIFO, oldest first *)
}

type active_txn = {
  event : Event_id.t;
  reads : string list;
  writes : string list;
}

type parked = {
  p_txn : int;
  p_client : Net.addr;
  p_req_id : int;
  p_event : Event_id.t;
  p_reads : string list;
  p_writes : string list;
  mutable p_live : bool;
  mutable p_timer : Kronos_simnet.Sim.timer option;
}

type t = {
  net : Kv_msg.msg Net.t;
  addr : Net.addr;
  prepare_timeout : float;
  keys : (string, key_state) Hashtbl.t;
  active : (int, active_txn) Hashtbl.t;
  mutable parked : parked list;  (* sorted by transaction id, oldest first *)
  mutable prepares : int;
  mutable rejections : int;
  mutable commits : int;
  mutable aborts : int;
}

let addr t = t.addr

let key_state t key =
  match Hashtbl.find_opt t.keys key with
  | Some ks -> ks
  | None ->
    let ks =
      { value = None; last_writer = None; last_readers = []; pinned_by = None;
        history = []; lock_owner = None; lock_waiters = [] }
    in
    Hashtbl.replace t.keys key ks;
    ks

let peek t key = match Hashtbl.find_opt t.keys key with Some ks -> ks.value | None -> None

let history t key =
  match Hashtbl.find_opt t.keys key with
  | Some ks -> List.rev ks.history
  | None -> []

let last_writer t key =
  match Hashtbl.find_opt t.keys key with Some ks -> ks.last_writer | None -> None

let pinned_keys t =
  Hashtbl.fold (fun _ ks n -> if ks.pinned_by <> None then n + 1 else n) t.keys 0

let parked_prepares t = List.length t.parked

let lock_queue_length t =
  Hashtbl.fold (fun _ ks n -> n + List.length ks.lock_waiters) t.keys 0

let prepares t = t.prepares
let rejections t = t.rejections
let commits t = t.commits
let aborts t = t.aborts

let respond t ~client ~req_id body =
  Net.send t.net ~src:t.addr ~dst:client (Kv_msg.Response { req_id; body })

(* {2 Plain operations} *)

let handle_get t ~client ~req_id key =
  respond t ~client ~req_id (Kv_msg.Value { value = peek t key })

let handle_put t ~client ~req_id key value =
  let ks = key_state t key in
  ks.value <- Some value;
  ks.history <- (Event_id.none, value) :: ks.history;
  respond t ~client ~req_id Kv_msg.Put_done

(* {2 Lock manager} *)

(* Grant the lock on every requested key, queueing behind current owners.
   The reply is sent once all keys are held.  Clients are responsible for a
   global acquisition order (the baseline acquires key by key, sorted). *)
let handle_lock t ~client ~req_id txn keys =
  let remaining = ref (List.length keys) in
  let acquired () =
    decr remaining;
    if !remaining = 0 then respond t ~client ~req_id Kv_msg.Lock_granted
  in
  if keys = [] then respond t ~client ~req_id Kv_msg.Lock_granted
  else
    List.iter
      (fun key ->
        let ks = key_state t key in
        match ks.lock_owner with
        | None ->
          ks.lock_owner <- Some txn;
          acquired ()
        | Some owner when owner = txn -> acquired ()
        | Some _ -> ks.lock_waiters <- ks.lock_waiters @ [ (txn, acquired) ])
      keys

let handle_unlock t ~client ~req_id txn keys =
  List.iter
    (fun key ->
      let ks = key_state t key in
      if ks.lock_owner = Some txn then begin
        match ks.lock_waiters with
        | [] -> ks.lock_owner <- None
        | (next, grant) :: rest ->
          ks.lock_owner <- Some next;
          ks.lock_waiters <- rest;
          grant ()
      end)
    keys;
  respond t ~client ~req_id Kv_msg.Unlocked

(* {2 Kronos transaction pin protocol} *)

let dedup_constraints constraints =
  List.sort_uniq
    (fun (a1, a2) (b1, b2) ->
      match Event_id.compare a1 b1 with
      | 0 -> Event_id.compare a2 b2
      | c -> c)
    constraints

(* Attempt to pin and answer a prepare; [false] means some key is pinned by
   another undecided transaction, so the prepare must park. *)
let try_prepare t ~client ~req_id ~txn ~event ~reads ~writes =
  let keys = List.sort_uniq String.compare (reads @ writes) in
  let blocked =
    List.exists
      (fun key ->
        match (key_state t key).pinned_by with
        | Some holder -> holder <> txn
        | None -> false)
      keys
  in
  if blocked then false
  else begin
    (* pin everything, read, and compute the ordering constraints *)
    List.iter (fun key -> (key_state t key).pinned_by <- Some txn) keys;
    Hashtbl.replace t.active txn { event; reads; writes };
    let values = List.map (fun key -> (key, (key_state t key).value)) reads in
    let constraint_of_read key =
      match (key_state t key).last_writer with
      | Some w when not (Event_id.equal w event) -> [ (w, event) ]
      | Some _ | None -> []
    in
    let constraint_of_write key =
      let ks = key_state t key in
      let after_writer =
        match ks.last_writer with
        | Some w when not (Event_id.equal w event) -> [ (w, event) ]
        | Some _ | None -> []
      in
      let after_readers =
        List.filter_map
          (fun r -> if Event_id.equal r event then None else Some (r, event))
          ks.last_readers
      in
      after_writer @ after_readers
    in
    let constraints =
      dedup_constraints
        (List.concat_map constraint_of_read reads
         @ List.concat_map constraint_of_write writes)
    in
    respond t ~client ~req_id (Kv_msg.Prepared { constraints; values });
    true
  end

(* Park a blocked prepare in transaction-age order, with a timeout that
   rejects it (the client aborts and retries) — the timeout is what breaks
   the rare cross-shard pin deadlocks. *)
let park t p =
  let rec insert = function
    | [] -> [ p ]
    | q :: rest as l -> if p.p_txn < q.p_txn then p :: l else q :: insert rest
  in
  t.parked <- insert t.parked;
  let timer =
    Kronos_simnet.Sim.schedule
      (Net.sim t.net)
      ~delay:t.prepare_timeout
      (fun () ->
        if p.p_live then begin
          p.p_live <- false;
          t.parked <- List.filter (fun q -> q != p) t.parked;
          t.rejections <- t.rejections + 1;
          respond t ~client:p.p_client ~req_id:p.p_req_id Kv_msg.Prepare_rejected
        end)
  in
  p.p_timer <- Some timer

(* After an unpin, admit as many parked prepares as now fit, oldest first. *)
let rec drain_parked t =
  let rec first_ready acc = function
    | [] -> None
    | p :: rest ->
      if
        try_prepare t ~client:p.p_client ~req_id:p.p_req_id ~txn:p.p_txn
          ~event:p.p_event ~reads:p.p_reads ~writes:p.p_writes
      then begin
        p.p_live <- false;
        (match p.p_timer with
         | Some timer -> Kronos_simnet.Sim.cancel timer
         | None -> ());
        Some (List.rev_append acc rest)
      end
      else first_ready (p :: acc) rest
  in
  match first_ready [] t.parked with
  | Some remaining ->
    t.parked <- remaining;
    drain_parked t
  | None -> ()

let handle_prepare t ~client ~req_id ~txn ~event ~reads ~writes =
  t.prepares <- t.prepares + 1;
  if not (try_prepare t ~client ~req_id ~txn ~event ~reads ~writes) then
    park t
      { p_txn = txn; p_client = client; p_req_id = req_id; p_event = event;
        p_reads = reads; p_writes = writes; p_live = true; p_timer = None }

let handle_decide t ~client ~req_id ~txn ~commit ~writes =
  (match Hashtbl.find_opt t.active txn with
   | None -> ()  (* duplicate decide *)
   | Some info ->
     Hashtbl.remove t.active txn;
     if commit then begin
       t.commits <- t.commits + 1;
       List.iter
         (fun key ->
           let ks = key_state t key in
           if not (List.exists (Event_id.equal info.event) ks.last_readers)
           then ks.last_readers <- info.event :: ks.last_readers)
         info.reads;
       List.iter
         (fun (key, value) ->
           let ks = key_state t key in
           ks.value <- Some value;
           ks.last_writer <- Some info.event;
           ks.last_readers <- [];
           ks.history <- (info.event, value) :: ks.history)
         writes
     end
     else t.aborts <- t.aborts + 1;
     let keys = List.sort_uniq String.compare (info.reads @ info.writes) in
     List.iter
       (fun key ->
         let ks = key_state t key in
         if ks.pinned_by = Some txn then ks.pinned_by <- None)
       keys);
  respond t ~client ~req_id Kv_msg.Decided;
  drain_parked t

let handle t ~src:_ msg =
  match (msg : Kv_msg.msg) with
  | Kv_msg.Response _ -> ()  (* shards never await responses *)
  | Kv_msg.Request { client; req_id; body } -> (
      match body with
      | Kv_msg.Get { key } -> handle_get t ~client ~req_id key
      | Kv_msg.Put { key; value } -> handle_put t ~client ~req_id key value
      | Kv_msg.Lock { txn; keys } -> handle_lock t ~client ~req_id txn keys
      | Kv_msg.Unlock { txn; keys } -> handle_unlock t ~client ~req_id txn keys
      | Kv_msg.Prepare { txn; event; reads; writes } ->
        handle_prepare t ~client ~req_id ~txn ~event ~reads ~writes
      | Kv_msg.Decide { txn; commit; writes } ->
        handle_decide t ~client ~req_id ~txn ~commit ~writes)

let create ~net ~addr ?(prepare_timeout = 10e-3) () =
  let t =
    {
      net;
      addr;
      prepare_timeout;
      keys = Hashtbl.create 1024;
      active = Hashtbl.create 64;
      parked = [];
      prepares = 0;
      rejections = 0;
      commits = 0;
      aborts = 0;
    }
  in
  Net.register net addr (handle t);
  t
