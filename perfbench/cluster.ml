(* The deployment under test: a durable 3-replica chain over real loopback
   TCP, each replica wired the way [kronosd --data-dir] wires one
   ([Server.start_node] on its own [Tcp_transport] runtime, coordinator on
   the head's endpoint), all in this process on one event loop, plus one
   client runtime.  Every runtime's transport, codec and storage go
   through the {!Wrap} wrappers. *)

open Kronos
module Chain = Kronos_replication.Chain
module Server = Kronos_service.Server
module Client = Kronos_service.Client
module Query_pool = Kronos_service.Query_pool
module Transport = Kronos_transport.Transport
module Event_loop = Kronos_transport.Event_loop
module Tcp = Kronos_transport.Tcp_transport
module Storage = Kronos_durability.Storage

type node = {
  addr : int;
  tcp : Chain.msg Tcp.t;
  replica : Chain.Replica.t;
  engine : Engine.t ref;
}

type t = {
  loop : Event_loop.t;
  dir : string;
  durability : Server.durability;
  nodes : node array;  (* head, middle, tail *)
  pool : Query_pool.t;
  client_tcp : Chain.msg Tcp.t;
  client : Client.t;
}

let run_once loop ~max_wait =
  Tracer.loop_iter (fun () -> Event_loop.run_once loop ~max_wait ())

let wait loop ~what ?(secs = 30.) pred =
  let deadline = Unix.gettimeofday () +. secs in
  while not (pred ()) do
    if Unix.gettimeofday () > deadline then failwith ("timed out waiting for " ^ what);
    run_once loop ~max_wait:0.01
  done

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let runtime loop = Tcp.create ~loop ~encode:Wrap.encode ~decode:Wrap.decode ()

let in_chain replica =
  List.mem (Chain.Replica.addr replica) (Chain.Replica.config replica).Chain.chain

(* Join at the tail by asking the coordinator, retrying as kronosd does. *)
let join net replica =
  Chain.Replica.announce_join replica ~coordinator:Wrap.coordinator_addr;
  let timer = ref None in
  timer :=
    Some
      (Transport.every net ~period:0.5 (fun () ->
           if in_chain replica then Option.iter Transport.cancel !timer
           else Chain.Replica.announce_join replica ~coordinator:Wrap.coordinator_addr))

(* Tail reader domains: kronosd's default of one per core but the loop's. *)
let query_domains () = max 1 (Domain.recommended_domain_count () - 1)

let setup ~dir ~cache_capacity ~request_timeout =
  let loop = Event_loop.create () in
  let rts = Array.init 3 (fun _ -> runtime loop) in
  let ports = Array.map (fun t -> Tcp.listen t ~port:0 ()) rts in
  let endpoint a = if a = Wrap.coordinator_addr then ports.(0) else ports.(a - 1) in
  Array.iter
    (fun t ->
      List.iter
        (fun a -> Tcp.add_peer t a ~host:"127.0.0.1" ~port:(endpoint a))
        [ Wrap.coordinator_addr; 1; 2; 3 ])
    rts;
  let durability =
    Server.durability
      ~storage_of:(fun a ->
        Wrap.storage (Storage.files ~dir:(Filename.concat dir (string_of_int a))))
      ()
  in
  let pool = Query_pool.create ~loop ~domains:(query_domains ()) () in
  let nets = Array.map (fun t -> Wrap.net (Tcp.transport t)) rts in
  let start i ?query_pool () =
    let replica, engine =
      Server.start_node ~net:nets.(i) ~addr:(i + 1) ~durability ?query_pool ()
    in
    { addr = i + 1; tcp = rts.(i); replica; engine }
  in
  let head = start 0 () in
  (* kronosd's 1 s failure timeout assumes one process per replica.  Here
     every replica shares one loop, so a stall of that loop (a large
     snapshot, a contended host) delays every replica alike and is no
     replica's failure; removing one would stall the chain for a rejoin. *)
  let coordinator =
    Chain.Coordinator.create ~net:nets.(0) ~addr:Wrap.coordinator_addr ~chain:[ 1 ]
      ~failure_timeout:10.0 ()
  in
  let chain_is l =
    (Chain.Coordinator.config coordinator).Chain.chain = l
  in
  let mid = start 1 () in
  join nets.(1) mid.replica;
  wait loop ~what:"replica 2 to join" (fun () -> chain_is [ 1; 2 ]);
  let tail = start 2 ~query_pool:pool () in
  join nets.(2) tail.replica;
  let nodes = [| head; mid; tail |] in
  wait loop ~what:"replica 3 to join" (fun () ->
      chain_is [ 1; 2; 3 ]
      && Array.for_all
           (fun n -> (Chain.Replica.config n.replica).Chain.chain = [ 1; 2; 3 ])
           nodes);
  (* The client dials the head (which also carries the coordinator) and
     the tail: two connections. *)
  let ct = runtime loop in
  List.iter
    (fun a -> Tcp.add_peer ct a ~host:"127.0.0.1" ~port:(endpoint a))
    [ Wrap.coordinator_addr; 1; 3 ];
  Tcp.connect_peers ct;
  Wrap.config_seen := false;
  let client =
    Client.create ~net:(Wrap.net (Tcp.transport ct)) ~addr:Wrap.client_addr
      ~coordinator:Wrap.coordinator_addr ~cache_capacity ~request_timeout ()
  in
  wait loop ~what:"the client's chain configuration" (fun () -> !Wrap.config_seen);
  { loop; dir; durability; nodes; pool; client_tcp = ct; client }

let teardown t =
  Query_pool.stop t.pool;
  Tcp.shutdown t.client_tcp;
  Array.iter (fun n -> Tcp.shutdown n.tcp) t.nodes;
  rm_rf t.dir

let quiesce t =
  wait t.loop ~what:"the replicas to converge" (fun () ->
      let s = Chain.Replica.last_applied t.nodes.(0).replica in
      Array.for_all (fun n -> Chain.Replica.last_applied n.replica = s) t.nodes)

(* Copy the tail's durable files (after [quiesce], so nothing is buffered):
   the restart is timed over this copy, a state fixed at set-up time. *)
let capture_tail t =
  let src = Filename.concat t.dir "3" and dst = Filename.concat t.dir "restart" in
  Sys.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let ic = open_in_bin (Filename.concat src f) in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin (Filename.concat dst f) in
      output_string oc data;
      close_out oc)
    (Sys.readdir src);
  dst

(* CPU time of the whole process (user + system, every domain), in ns.
   Unlike wall time it leaves out time the process spent waiting: for the
   disk, for the network, or for a CPU the host gave to another guest. *)
let cpu_ns () = int_of_float (Sys.time () *. 1e9)

(* Time [Server.start_node] over a captured tail directory until it returns
   recovered, with kronosd's durability defaults, in wall and CPU time;
   also report how much of the wall time was storage reads and how much
   was command replay (the server's apply histograms). *)
let restart_tail ~loop ~dir =
  let rt = runtime loop in
  let durability =
    Server.durability ~storage_of:(fun _ -> Wrap.storage (Storage.files ~dir)) ()
  in
  let r0 = !Wrap.read_ns and e0 = Wrap.engine_ns () in
  let c0 = cpu_ns () and t0 = Tracer.now_ns () in
  let replica, engine = Server.start_node ~net:(Tcp.transport rt) ~addr:3 ~durability () in
  let dt = Tracer.now_ns () - t0 and cpu = cpu_ns () - c0 in
  let read = !Wrap.read_ns - r0 and replay = Wrap.engine_ns () - e0 in
  let applied = Chain.Replica.last_applied replica in
  Tcp.shutdown rt;
  (dt, cpu, read, replay, !engine, applied)
