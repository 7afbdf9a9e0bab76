open Kronos
open Kronos_wire
module Transport = Kronos_transport.Transport
module Chain = Kronos_replication.Chain
module Durability = Kronos_durability

module M = struct
  let scope = Kronos_metrics.scope "server"

  let op_metrics op =
    ( Kronos_metrics.counter scope ~labels:[ ("op", op) ] "ops_total",
      Kronos_metrics.histogram scope ~labels:[ ("op", op) ] "apply_seconds" )

  let create_event = op_metrics "create_event"
  let acquire_ref = op_metrics "acquire_ref"
  let release_ref = op_metrics "release_ref"
  let query_order = op_metrics "query_order"
  let query_proof = op_metrics "query_proof"
  let assign_order = op_metrics "assign_order"
  let malformed = Kronos_metrics.counter scope "malformed_requests_total"
end

let apply engine cmd =
  let timed (ops, hist) f =
    Kronos_metrics.Counter.incr ops;
    if Kronos_metrics.enabled () then begin
      let t0 = Unix.gettimeofday () in
      let r = f () in
      Kronos_metrics.Histogram.observe hist (Unix.gettimeofday () -. t0);
      r
    end
    else f ()
  in
  let response =
    match Message.decode_request cmd with
    | exception Codec.Decode_error _ ->
      (* a malformed command can never name a live event *)
      Kronos_metrics.Counter.incr M.malformed;
      Message.Rejected (Order.Unknown_event Event_id.none)
    | Message.Create_event ->
      timed M.create_event (fun () ->
          Message.Event_created (Engine.create_event engine))
    | Message.Acquire_ref e ->
      timed M.acquire_ref (fun () ->
          match Engine.acquire_ref engine e with
          | Ok () -> Message.Ref_acquired
          | Error err -> Message.Rejected err)
    | Message.Release_ref e ->
      timed M.release_ref (fun () ->
          match Engine.release_ref engine e with
          | Ok n -> Message.Ref_released n
          | Error err -> Message.Rejected err)
    (* Reads run the query pool's function over the live view, which
       counts into the engine's [queries].  [min_epoch] is advisory: the
       live engine is the freshest state this replica has, so it answers
       regardless and the stamped epoch lets the client detect and
       escalate staleness. *)
    | Message.Query_order _ as req ->
      timed M.query_order (fun () ->
          Query_pool.respond (Engine.current_view engine) req)
    | Message.Query_proof _ as req ->
      timed M.query_proof (fun () ->
          Query_pool.respond (Engine.current_view engine) req)
    | Message.Assign_order reqs ->
      (* the reply epoch is replicated state (every replica encodes its own
         answer), which is why the epoch must be deterministic across
         replicas: it is the graph mutation version, persisted in
         snapshots *)
      timed M.assign_order (fun () ->
          match Engine.assign_order engine reqs with
          | Ok outs -> Message.Outcomes { epoch = Engine.epoch engine; outs }
          | Error err -> Message.Rejected err)
  in
  Message.encode_response response

type durability = {
  storage_of : Transport.addr -> Durability.Storage.t;
  wal_config : Durability.Wal.config;
  wal_bytes_per_snapshot : int;
}

let durability ?(wal_config = Durability.Wal.default_config)
    ?(wal_bytes_per_snapshot = Durability.Schedule.default_wal_bytes)
    ~storage_of () =
  if wal_bytes_per_snapshot < 1 then
    invalid_arg "Server.durability: wal_bytes_per_snapshot";
  { storage_of; wal_config; wal_bytes_per_snapshot }

(* Without [~durability] every replica start gets fresh in-memory storage:
   the same WAL and snapshot path, with nothing kept across a restart. *)
let in_memory =
  durability
    ~storage_of:(fun _ ->
      Durability.Storage.Memory.storage (Durability.Storage.Memory.create ()))
    ()

type cluster = {
  net : Chain.msg Transport.t;
  coordinator : Chain.Coordinator.t;
  mutable replicas : (Chain.Replica.t * Engine.t ref) list;
  dur : durability;
  service : float option;
}

(* Wire a query pool to a replica's engine cell: attach (so views are
   published from whatever engine currently occupies the cell — snapshot
   installs and restarts swap it) and return the replica's [read_async]
   hook. *)
let read_async_of query_pool engine =
  Option.map
    (fun pool ->
      Query_pool.attach pool ~engine:(fun () -> !engine);
      fun ~client ~req_id:_ ~cmd ~reply ->
        Query_pool.offload pool ~client ~cmd ~reply)
    query_pool

(* A replica first recovers from its storage (snapshot + WAL suffix), then
   runs with persistence hooks: log each applied command and group-commit
   once per loop pass through the snapshot schedule, which snapshots by WAL
   bytes and retires what each snapshot covers (DESIGN.md §16). *)
let start ~net ~addr ~service ?query_pool d =
  let storage = d.storage_of addr in
  let replayed = ref [] in
  let outcome =
    Durability.Recovery.run ~wal_config:d.wal_config
      ~replay:(fun engine (r : Durability.Wal.record) ->
        let client, req_id, cmd = Chain.decode_entry_payload r.payload in
        let resp = apply engine cmd in
        replayed := (r.seq, client, req_id, resp) :: !replayed)
      storage
  in
  let engine = ref outcome.Durability.Recovery.engine in
  let wal = outcome.Durability.Recovery.wal in
  let schedule =
    Durability.Schedule.create storage wal
      ~wal_bytes:d.wal_bytes_per_snapshot
      ~snapshot_seq:outcome.Durability.Recovery.snapshot_seq
  in
  let persist =
    {
      Chain.Replica.log_entry =
        (fun ~seq ~client ~req_id ~cmd ->
          Durability.Wal.append wal ~seq
            ~payload:(Chain.encode_entry_payload ~client ~req_id ~cmd));
      commit = (fun ~upto -> Durability.Schedule.commit schedule !engine ~upto);
      snapshot =
        (fun ~upto ->
          (* the newest snapshot file serves only while the WAL above it is
             intact; when files were lost, ship the engine as it stands *)
          let covers (seq, _) = Durability.Wal.read_from wal ~since:seq <> None in
          match Durability.Snapshot.load_chain_bytes storage with
          | Some file when covers file -> file
          | Some _ | None ->
            let snap = Engine.to_snapshot !engine in
            (upto, Durability.Snapshot.encode ~seq:upto snap));
      tail =
        (fun ~since ->
          Option.map
            (List.map (fun (r : Durability.Wal.record) ->
                 let client, req_id, cmd =
                   Chain.decode_entry_payload r.payload
                 in
                 (r.seq, client, req_id, cmd)))
            (Durability.Wal.read_from wal ~since));
      install =
        (fun ~seq snapshot ->
          let _, snap = Durability.Snapshot.decode snapshot in
          engine := Engine.of_snapshot snap;
          (* the received snapshot is this replica's new recovery
             baseline, and its own log below [seq] is stale *)
          Durability.Schedule.install schedule ~seq snapshot);
    }
  in
  let replica =
    Chain.Replica.create ~net ~addr
      ~apply:(fun cmd -> apply !engine cmd)
      ?read_async:(read_async_of query_pool engine)
      ~config:{ Chain.version = 0; chain = [] } ?service ~persist ()
  in
  if outcome.Durability.Recovery.next_seq > 1 then
    Chain.Replica.restore replica
      ~last_applied:(outcome.Durability.Recovery.next_seq - 1)
      ~entries:(List.rev !replayed);
  (replica, engine)

let start_node ~net ~addr ?service ?(durability = in_memory) ?query_pool () =
  start ~net ~addr ~service ?query_pool durability

let deploy ~net ~coordinator ~replicas ?service ?(durability = in_memory)
    ?(ping_interval = 0.2) ?(failure_timeout = 1.0) () =
  let started =
    List.map
      (fun addr -> start ~net ~addr ~service durability)
      replicas
  in
  let coordinator =
    Chain.Coordinator.create ~net ~addr:coordinator ~chain:replicas
      ~ping_interval ~failure_timeout ()
  in
  { net; coordinator; replicas = started; dur = durability; service }

let replica_of cluster addr =
  List.find_map
    (fun (replica, _) ->
      if Chain.Replica.addr replica = addr then Some replica else None)
    cluster.replicas

let crash cluster addr =
  match replica_of cluster addr with
  | Some replica -> Chain.Replica.crash replica
  | None -> ()

let join cluster addr ?service () =
  let service = match service with Some _ -> service | None -> cluster.service in
  let replica, engine =
    start ~net:cluster.net ~addr ~service cluster.dur
  in
  Chain.Coordinator.join cluster.coordinator replica;
  cluster.replicas <- cluster.replicas @ [ (replica, engine) ]

let restart_replica cluster addr ?service () =
  if Transport.is_registered cluster.net addr then
    invalid_arg "Server.restart_replica: replica still running";
  if replica_of cluster addr = None then
    invalid_arg "Server.restart_replica: unknown replica";
  let service = match service with Some _ -> service | None -> cluster.service in
  let replica, engine =
    start ~net:cluster.net ~addr ~service cluster.dur
  in
  cluster.replicas <-
    List.filter (fun (r, _) -> Chain.Replica.addr r <> addr) cluster.replicas
    @ [ (replica, engine) ];
  Chain.Coordinator.join cluster.coordinator replica

let engine_of cluster addr =
  List.find_map
    (fun (replica, engine) ->
      if Chain.Replica.addr replica = addr then Some !engine else None)
    cluster.replicas
