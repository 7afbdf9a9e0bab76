type addr = int

type latency = { base : float; jitter : float; drop : float }

let default_latency = { base = 100e-6; jitter = 50e-6; drop = 0.0 }

(* One registration per [register] call: a re-registered address starts
   with an idle queue, and jobs queued for a replaced or crashed handler
   never run. *)
type 'm registration = {
  handler : src:addr -> 'm -> unit;
  queue : Service_queue.t;
}

type 'm t = {
  sim : Sim.t;
  rng : Rng.t;
  fifo : bool;
  default : latency;
  handlers : (addr, 'm registration) Hashtbl.t;
  services : (addr, 'm -> float option) Hashtbl.t;
  links : (addr * addr, latency) Hashtbl.t;
  last_delivery : (addr * addr, float) Hashtbl.t;
  mutable partitions : (addr list * addr list) list;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

let create ?(latency = default_latency) ?(fifo = true) sim =
  {
    sim;
    rng = Rng.split (Sim.rng sim);
    fifo;
    default = latency;
    handlers = Hashtbl.create 64;
    services = Hashtbl.create 16;
    links = Hashtbl.create 64;
    last_delivery = Hashtbl.create 64;
    partitions = [];
    sent = 0;
    delivered = 0;
    dropped = 0;
  }

let sim t = t.sim
let sent t = t.sent
let delivered t = t.delivered
let dropped t = t.dropped

let register t a handler =
  Hashtbl.replace t.handlers a { handler; queue = Service_queue.create t.sim }

let unregister t a = Hashtbl.remove t.handlers a
let is_registered t a = Hashtbl.mem t.handlers a
let set_service t a cost = Hashtbl.replace t.services a cost

let set_link t ~src ~dst latency = Hashtbl.replace t.links (src, dst) latency

let partition t a b = t.partitions <- (a, b) :: t.partitions
let heal t = t.partitions <- []

let partitioned t src dst =
  List.exists
    (fun (a, b) ->
      (List.mem src a && List.mem dst b) || (List.mem src b && List.mem dst a))
    t.partitions

let link_latency t src dst =
  match Hashtbl.find_opt t.links (src, dst) with
  | Some l -> l
  | None -> t.default

(* A costed message waits for its registration's server; by the time the
   server reaches it the process may have crashed (fail-stop: it does no
   more work) or been restarted under a new registration. *)
let arrive t ~src ~dst msg =
  match Hashtbl.find_opt t.handlers dst with
  | None -> t.dropped <- t.dropped + 1
  | Some r -> (
    let run () =
      match Hashtbl.find_opt t.handlers dst with
      | Some current when current == r ->
        t.delivered <- t.delivered + 1;
        r.handler ~src msg
      | Some _ | None -> t.dropped <- t.dropped + 1
    in
    let cost =
      Option.bind (Hashtbl.find_opt t.services dst) (fun price -> price msg)
    in
    match cost with
    | None -> run ()
    | Some cost -> Service_queue.submit_fixed r.queue ~cost run)

let send t ~src ~dst msg =
  t.sent <- t.sent + 1;
  let l = link_latency t src dst in
  if partitioned t src dst || (l.drop > 0.0 && Rng.bernoulli t.rng l.drop) then
    t.dropped <- t.dropped + 1
  else begin
    let delay = l.base +. (if l.jitter > 0.0 then Rng.float t.rng l.jitter else 0.0) in
    let deliver_at =
      let nominal = Sim.now t.sim +. delay in
      if not t.fifo then nominal
      else begin
        let key = (src, dst) in
        let prev = Option.value ~default:neg_infinity (Hashtbl.find_opt t.last_delivery key) in
        let at = if nominal <= prev then prev +. 1e-9 else nominal in
        Hashtbl.replace t.last_delivery key at;
        at
      end
    in
    ignore
      (Sim.schedule_at t.sim ~time:deliver_at (fun () ->
           arrive t ~src ~dst msg))
  end
