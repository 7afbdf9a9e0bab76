(* kronosd: host one Kronos replica (and optionally the chain coordinator)
   over real TCP.

   A minimal 3-replica chain on localhost:

     kronosd --addr 1 --port 4001 --coordinate \
             --peer 2@127.0.0.1:4002 --peer 3@127.0.0.1:4003 &
     kronosd --addr 2 --port 4002 --coordinator 1000@127.0.0.1:4001 \
             --peer 1@127.0.0.1:4001 --peer 3@127.0.0.1:4003 &
     kronosd --addr 3 --port 4003 --coordinator 1000@127.0.0.1:4001 \
             --peer 1@127.0.0.1:4001 --peer 2@127.0.0.1:4002 &

   The first process hosts the coordinator (address 1000) next to replica 1;
   the others dial it and join the chain at the tail.  Every daemon must
   list the other replicas with --peer: chain neighbours send to each other
   directly, so each process needs a route to any replica it may precede or
   follow (exactly as in etcd's initial-cluster).  Every replica logs each
   applied command to a WAL and snapshots it; add --data-dir to keep them
   on disk, so the replica recovers from its own snapshot + WAL when
   restarted with the same flags.  Without it they live in memory, and a
   restarted replica rejoins blank and catches up by state transfer. *)

module Chain = Kronos_replication.Chain
module Server = Kronos_service.Server
module Transport = Kronos_transport.Transport
module Tcp = Kronos_transport.Tcp_transport
module Event_loop = Kronos_transport.Event_loop

let usage = "kronosd --addr N --port P [options]"

type peer = { addr : int; host : string; port : int }

(* "ADDR@HOST:PORT" *)
let parse_endpoint what s =
  match String.index_opt s '@' with
  | None -> raise (Arg.Bad (what ^ ": expected ADDR@HOST:PORT, got " ^ s))
  | Some i -> (
      let addr = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | None -> raise (Arg.Bad (what ^ ": expected ADDR@HOST:PORT, got " ^ s))
      | Some j -> (
          try
            {
              addr = int_of_string addr;
              host = String.sub rest 0 j;
              port = int_of_string (String.sub rest (j + 1) (String.length rest - j - 1));
            }
          with Failure _ ->
            raise (Arg.Bad (what ^ ": expected ADDR@HOST:PORT, got " ^ s))))

(* "[HOST:]PORT" for --metrics-addr; HOST defaults to 127.0.0.1. *)
let parse_metrics_addr s =
  let bad () =
    raise (Arg.Bad ("--metrics-addr: expected [H:]P with 0 <= P <= 65535, got " ^ s))
  in
  let host, port =
    match String.rindex_opt s ':' with
    | None -> ("127.0.0.1", s)
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  match int_of_string_opt port with
  | Some p when p >= 0 && p <= 65535 -> (host, p)
  | Some _ | None -> bad ()

let () =
  let addr = ref (-1) in
  let port = ref (-1) in
  let host = ref "127.0.0.1" in
  let peers = ref [] in
  let coordinator = ref None in
  let coordinate = ref false in
  let coordinator_addr = ref 1000 in
  let data_dir = ref "" in
  let metrics_addr = ref None in
  let no_metrics = ref false in
  let snapshot_wal_bytes = ref Kronos_durability.Schedule.default_wal_bytes in
  let query_domains = ref (max 1 (Domain.recommended_domain_count () - 1)) in
  let ping_interval = ref 0.2 in
  let failure_timeout = ref 1.0 in
  let verbose = ref false in
  let spec =
    [
      ("--addr", Arg.Set_int addr, "N this replica's address (required)");
      ("--port", Arg.Set_int port, "P TCP port to listen on, 0 = ephemeral (required)");
      ("--host", Arg.Set_string host, "H interface to bind (default 127.0.0.1)");
      ( "--peer",
        Arg.String (fun s -> peers := parse_endpoint "--peer" s :: !peers),
        "A@H:P route for another process's address (repeatable)" );
      ( "--coordinator",
        Arg.String (fun s -> coordinator := Some (parse_endpoint "--coordinator" s)),
        "A@H:P join the chain run by this coordinator" );
      ("--coordinate", Arg.Set coordinate, " host the coordinator in this process");
      ( "--coordinator-addr",
        Arg.Set_int coordinator_addr,
        "N address of the hosted coordinator (default 1000, with \
         --coordinate)" );
      ( "--data-dir",
        Arg.Set_string data_dir,
        "DIR durable storage directory (default: WAL and snapshots in memory, \
         lost on exit)" );
      ( "--metrics-addr",
        Arg.String (fun s -> metrics_addr := Some (parse_metrics_addr s)),
        "[H:]P serve the metrics text page over one-shot TCP (0 = ephemeral)" );
      ( "--no-metrics",
        Arg.Set no_metrics,
        " switch the metrics registry to the no-op sink" );
      ( "--snapshot-wal-bytes",
        Arg.Int
          (fun b ->
            if b < 1 then
              raise (Arg.Bad ("--snapshot-wal-bytes: expected B >= 1, got "
                              ^ string_of_int b));
            snapshot_wal_bytes := b),
        "B write a full snapshot once B WAL bytes accrue (default \
         4194304)" );
      ( "--query-domains",
        Arg.Set_int query_domains,
        "N reader domains answering queries over published views (default \
         cores-1, min 1; 0 keeps all queries on the event-loop thread)" );
      ( "--ping-interval",
        Arg.Set_float ping_interval,
        "S coordinator ping period (default 0.2, with --coordinate)" );
      ( "--failure-timeout",
        Arg.Set_float failure_timeout,
        "S remove replicas silent for S seconds (default 1.0, with --coordinate)" );
      ("--verbose", Arg.Set verbose, " log connection and chain activity");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !addr < 0 || !port < 0 then begin
    prerr_endline usage;
    exit 2
  end;
  if !coordinate && !coordinator <> None then begin
    prerr_endline "kronosd: --coordinate and --coordinator are exclusive";
    exit 2
  end;
  if (not !coordinate) && !coordinator = None then begin
    prerr_endline "kronosd: need --coordinate or --coordinator A@H:P";
    exit 2
  end;
  if !verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  if !no_metrics then Kronos_metrics.set_enabled false;

  let loop = Event_loop.create () in
  let tcp =
    Tcp.create ~loop ~encode:Kronos_replication.Chain_codec.encode
      ~decode:Kronos_replication.Chain_codec.decode ()
  in
  let actual_port = Tcp.listen tcp ~host:!host ~port:!port () in
  (match !metrics_addr with
   | None -> ()
   | Some (mhost, mport) ->
     let server =
       Kronos_transport.Metrics_server.start ~loop ~host:mhost ~port:mport ()
     in
     Printf.printf "kronosd: metrics on %s:%d\n%!" mhost
       (Kronos_transport.Metrics_server.port server));
  List.iter (fun p -> Tcp.add_peer tcp p.addr ~host:p.host ~port:p.port) !peers;
  (match !coordinator with
   | Some c -> Tcp.add_peer tcp c.addr ~host:c.host ~port:c.port
   | None -> ());
  let net = Tcp.transport tcp in

  let durability =
    Server.durability ~wal_bytes_per_snapshot:!snapshot_wal_bytes
      ~storage_of:(fun a ->
        if !data_dir = "" then
          Kronos_durability.Storage.(Memory.storage (Memory.create ()))
        else
          Kronos_durability.Storage.files
            ~dir:(Filename.concat !data_dir (string_of_int a)))
      ()
  in
  let query_pool =
    if !query_domains <= 0 then None
    else begin
      let pool =
        Kronos_service.Query_pool.create ~loop ~domains:!query_domains ()
      in
      Printf.printf "kronosd: %d query domain(s) over published views\n%!"
        (Kronos_service.Query_pool.domains pool);
      Some pool
    end
  in
  let replica, _engine =
    (* A snapshot in a format this build does not read must stop the
       daemon: skipping it would recover older state over a log that no
       longer covers the gap. *)
    try Server.start_node ~net ~addr:!addr ~durability ?query_pool ()
    with Kronos_durability.Snapshot.Unsupported_version { file; version } ->
      Printf.eprintf
        "kronosd: cannot recover: %s has snapshot format version %d, this \
         build reads only version %d\n%!"
        (Filename.concat (Filename.concat !data_dir (string_of_int !addr)) file)
        version Kronos_durability.Snapshot.version;
      exit 1
  in
  Printf.printf "kronosd: replica %d listening on %s:%d (recovered seq %d)\n%!"
    !addr !host actual_port
    (Chain.Replica.last_applied replica);

  let coordinator_at =
    match !coordinator with
    | Some c -> c.addr
    | None ->
      ignore
        (Chain.Coordinator.create ~net ~addr:!coordinator_addr ~chain:[ !addr ]
           ~ping_interval:!ping_interval ~failure_timeout:!failure_timeout ());
      Printf.printf "kronosd: coordinating as address %d\n%!" !coordinator_addr;
      !coordinator_addr
  in

  (* Join (or re-join after recovery) by asking the coordinator; retry until
     this replica shows up in the broadcast configuration. *)
  let in_chain () =
    List.mem !addr (Chain.Replica.config replica).Chain.chain
  in
  let join_timer = ref None in
  let joining = ref (not (in_chain ())) in
  if !joining then begin
    Chain.Replica.announce_join replica ~coordinator:coordinator_at;
    join_timer :=
      Some
        (Transport.every net ~period:0.5 (fun () ->
             if in_chain () then begin
               joining := false;
               Option.iter Transport.cancel !join_timer
             end
             else Chain.Replica.announce_join replica ~coordinator:coordinator_at))
  end;

  (* Report chain membership changes. *)
  let last_version = ref (-1) in
  ignore
    (Transport.every net ~period:0.25 (fun () ->
         let cfg = Chain.Replica.config replica in
         if cfg.Chain.version <> !last_version then begin
           last_version := cfg.Chain.version;
           Printf.printf "kronosd: chain v%d = [%s]\n%!" cfg.Chain.version
             (String.concat "; " (List.map string_of_int cfg.Chain.chain))
         end));

  let stop = ref false in
  let quit _ = stop := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
  Event_loop.run_forever loop ~stop:(fun () ->
      !stop || Chain.Replica.is_removed replica);
  if Chain.Replica.is_removed replica then
    Printf.printf "kronosd: removed from the chain, exiting\n%!"
  else Printf.printf "kronosd: shutting down\n%!";
  Option.iter Kronos_service.Query_pool.stop query_pool;
  Tcp.shutdown tcp
