module Net = Kronos_simnet.Net
module Sim = Kronos_simnet.Sim

type waiter = {
  w_txn : int;
  w_write : bool;
  w_grant : unit -> unit;    (* reply L_granted *)
  w_timeout : unit -> unit;  (* reply L_lock_timeout *)
  mutable w_timer : Sim.timer option;
  mutable w_live : bool;
}

type lock_state = {
  mutable readers : int list;      (* transaction ids holding read locks *)
  mutable writer : int option;
  mutable waiters : waiter list;   (* FIFO, head first *)
}

type t = {
  net : G_msg.msg Net.t;
  addr : Net.addr;
  sim : Sim.t;
  lock_timeout : float;
  adjacency : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  locks : (int, lock_state) Hashtbl.t;
  held_by : (int, int list) Hashtbl.t;  (* txn -> vertices locked here *)
  mutable timeouts : int;
}

let addr t = t.addr
let timeouts t = t.timeouts

let adjacency_now t v =
  match Hashtbl.find_opt t.adjacency v with
  | None -> []
  | Some set -> List.sort Int.compare (Hashtbl.fold (fun w () acc -> w :: acc) set [])

let preload t ~vertex ~neighbors =
  let set =
    match Hashtbl.find_opt t.adjacency vertex with
    | Some set -> set
    | None ->
      let set = Hashtbl.create (List.length neighbors) in
      Hashtbl.replace t.adjacency vertex set;
      set
  in
  List.iter (fun w -> Hashtbl.replace set w ()) neighbors

let lock_state t v =
  match Hashtbl.find_opt t.locks v with
  | Some ls -> ls
  | None ->
    let ls = { readers = []; writer = None; waiters = [] } in
    Hashtbl.replace t.locks v ls;
    ls

let held_locks t =
  Hashtbl.fold
    (fun _ ls n -> if ls.readers <> [] || ls.writer <> None then n + 1 else n)
    t.locks 0

let waiting t =
  Hashtbl.fold (fun _ ls n -> n + List.length ls.waiters) t.locks 0

let respond t ~client ~req_id body =
  Net.send t.net ~src:t.addr ~dst:client (G_msg.Response { req_id; body })

let note_held t txn v =
  Hashtbl.replace t.held_by txn
    (v :: Option.value ~default:[] (Hashtbl.find_opt t.held_by txn))

(* Grant as many queued waiters as compatibility allows, in FIFO order. *)
let rec drain t v ls =
  match ls.waiters with
  | [] -> ()
  | w :: rest ->
    if not w.w_live then begin
      ls.waiters <- rest;
      drain t v ls
    end
    else begin
      let compatible =
        if w.w_write then ls.writer = None && ls.readers = []
        else ls.writer = None
      in
      if compatible then begin
        ls.waiters <- rest;
        w.w_live <- false;
        (match w.w_timer with Some timer -> Sim.cancel timer | None -> ());
        if w.w_write then ls.writer <- Some w.w_txn
        else ls.readers <- w.w_txn :: ls.readers;
        note_held t w.w_txn v;
        w.w_grant ();
        if not w.w_write then drain t v ls
      end
    end

let handle_lock t ~client ~req_id ~txn ~vertex ~write =
  let ls = lock_state t vertex in
  let already_held =
    ls.writer = Some txn || (not write && List.mem txn ls.readers)
  in
  if already_held then respond t ~client ~req_id G_msg.L_granted
  else begin
    let compatible =
      (if write then ls.writer = None && ls.readers = [] else ls.writer = None)
      && ls.waiters = []
    in
    if compatible then begin
      if write then ls.writer <- Some txn else ls.readers <- txn :: ls.readers;
      note_held t txn vertex;
      respond t ~client ~req_id G_msg.L_granted
    end
    else begin
      let w =
        {
          w_txn = txn;
          w_write = write;
          w_grant = (fun () -> respond t ~client ~req_id G_msg.L_granted);
          w_timeout =
            (fun () ->
              t.timeouts <- t.timeouts + 1;
              respond t ~client ~req_id G_msg.L_lock_timeout);
          w_timer = None;
          w_live = true;
        }
      in
      w.w_timer <-
        Some
          (Sim.schedule t.sim ~delay:t.lock_timeout (fun () ->
               if w.w_live then begin
                 w.w_live <- false;
                 w.w_timeout ()
               end));
      ls.waiters <- ls.waiters @ [ w ]
    end
  end

let handle_unlock_all t ~client ~req_id ~txn =
  (match Hashtbl.find_opt t.held_by txn with
   | None -> ()
   | Some vertices ->
     Hashtbl.remove t.held_by txn;
     List.iter
       (fun v ->
         let ls = lock_state t v in
         if ls.writer = Some txn then ls.writer <- None;
         ls.readers <- List.filter (fun r -> r <> txn) ls.readers;
         drain t v ls)
       (List.sort_uniq Int.compare vertices));
  respond t ~client ~req_id G_msg.L_unlocked

let adjacency_set t v =
  match Hashtbl.find_opt t.adjacency v with
  | Some set -> set
  | None ->
    let set = Hashtbl.create 8 in
    Hashtbl.replace t.adjacency v set;
    set

let handle_update t ~client ~req_id ~vertex ~op =
  (match (op : G_msg.vop) with
   | G_msg.Add_vertex -> ignore (adjacency_set t vertex)
   | G_msg.Add_edge w -> Hashtbl.replace (adjacency_set t vertex) w ()
   | G_msg.Remove_edge w -> Hashtbl.remove (adjacency_set t vertex) w);
  respond t ~client ~req_id G_msg.L_update_done

let handle t ~src:_ msg =
  match (msg : G_msg.msg) with
  | G_msg.Response _ -> ()
  | G_msg.Request { client; req_id; body } -> (
      match body with
      | G_msg.L_lock { txn; vertex; write } ->
        handle_lock t ~client ~req_id ~txn ~vertex ~write
      | G_msg.L_unlock_all { txn } -> handle_unlock_all t ~client ~req_id ~txn
      | G_msg.L_update { vertex; op } -> handle_update t ~client ~req_id ~vertex ~op
      | G_msg.L_neighbors { vertices } ->
        respond t ~client ~req_id
          (G_msg.L_neighbors_are
             (List.map (fun v -> (v, adjacency_now t v)) vertices))
      | G_msg.K_update _ | G_msg.K_neighbors _ ->
        invalid_arg "Lshard: KronoGraph message sent to a lock-based shard")

let create ~net ~addr ?(lock_timeout = 20e-3) () =
  let t =
    {
      net;
      addr;
      sim = Net.sim net;
      lock_timeout;
      adjacency = Hashtbl.create 4096;
      locks = Hashtbl.create 4096;
      held_by = Hashtbl.create 256;
      timeouts = 0;
    }
  in
  Net.register net addr (handle t);
  t
