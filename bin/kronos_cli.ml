(* kronos_cli: talk to a kronosd chain over TCP.

     kronos_cli --peer 1000@127.0.0.1:4001 --peer 1@127.0.0.1:4001 \
                --peer 2@127.0.0.1:4002 --peer 3@127.0.0.1:4003 \
                --coordinator 1000 CMD

   CMD:
     create                  mint an event, print its id
     assign E1 E2            order E1 happens-before E2 (ids as printed)
     query E1 E2             ask the relation between two events; with
                             --verify the answer must come with a
                             happens-before certificate that checks out
                             locally (DESIGN.md §13) or the call fails
     proof E1 E2             fetch and verify a certificate and print it
                             (endpoint commitments and the event path)
     release E               drop the client reference on an event
     load                    closed-loop generator: create+assign pairs,
                             report throughput and latency percentiles
     stats [ADDR]            fetch and pretty-print the live metrics of one
                             replica (default: the first --peer); --watch
                             re-polls and prints only the changed series

   Every replica endpoint should be listed with --peer: the CLI dials them
   all eagerly so whichever replica is the chain tail knows the return
   route for replies.

   Federation mode (--shards N, see DESIGN.md §12) talks to N kronosd
   chains through a federation router.  Event ids then read "S/ID" (shard
   and local id, as printed by create); assign and query may mix shards —
   cross-shard constraints go through the router's two-shard commit.
   Shard i's coordinator defaults to address 1000+i (the kronosd
   --shard i/N plan); override any of them with --shard i@ADDR.  In this
   mode "load" scatters its closed loops over the shards and reports
   per-shard assign/query latency percentiles, and "stats" merges every
   shard's registry into one view (fed.* aggregates plus shardN.* series).

   The router's cross-edge table must survive across one-shot invocations
   (a federation has one logical router); it is carried in --fed-state
   FILE (default .kronos-fed.state in the working directory). *)

open Kronos
module Chain = Kronos_replication.Chain
module Client = Kronos_service.Client
module Transport = Kronos_transport.Transport
module Tcp = Kronos_transport.Tcp_transport
module Event_loop = Kronos_transport.Event_loop
module Fid = Kronos_federation.Fid
module Router = Kronos_federation.Router

let usage =
  "kronos_cli [options] (create | assign E1 E2 | query [--verify] E1 E2 | \
   proof E1 E2 | release E | load | stats [ADDR])\n\
   federation: add --shards N (ids become S/ID; stats merges all shards)"

type peer = { addr : int; host : string; port : int }

let parse_endpoint s =
  match String.index_opt s '@' with
  | None -> raise (Arg.Bad ("--peer: expected ADDR@HOST:PORT, got " ^ s))
  | Some i -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | None -> raise (Arg.Bad ("--peer: expected ADDR@HOST:PORT, got " ^ s))
      | Some j -> (
          try
            {
              addr = int_of_string (String.sub s 0 i);
              host = String.sub rest 0 j;
              port = int_of_string (String.sub rest (j + 1) (String.length rest - j - 1));
            }
          with Failure _ ->
            raise (Arg.Bad ("--peer: expected ADDR@HOST:PORT, got " ^ s))))

let event_of_string s =
  match Event_id.of_int64 (Int64.of_string s) with
  | e -> e
  | exception _ ->
    prerr_endline ("kronos_cli: not an event id: " ^ s);
    exit 2

let string_of_event e = Int64.to_string (Event_id.to_int64 e)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

let () =
  let peers = ref [] in
  let coordinator = ref 1000 in
  (* Replicas deduplicate writes by (client address, request id), so every
     invocation needs a fresh address or it would be served the cached
     responses of an earlier run. *)
  let addr = ref (10000 + (Unix.getpid () mod 1_000_000)) in
  let timeout = ref 5.0 in
  let ops = ref 1000 in
  let concurrency = ref 8 in
  let watch = ref false in
  let verify = ref false in
  let interval = ref 1.0 in
  let shards = ref 0 in
  let shard_coordinators = ref [] in
  let fed_state = ref ".kronos-fed.state" in
  let rest = ref [] in
  let spec =
    [
      ( "--peer",
        Arg.String (fun s -> peers := parse_endpoint s :: !peers),
        "A@H:P endpoint of a kronosd (repeat for every replica)" );
      ("--coordinator", Arg.Set_int coordinator, "N coordinator address (default 1000)");
      ("--addr", Arg.Set_int addr, "N this client's address (default pid-derived)");
      ("--timeout", Arg.Set_float timeout, "S per-request deadline (default 5.0)");
      ("--ops", Arg.Set_int ops, "N operations for load (default 1000)");
      ("--concurrency", Arg.Set_int concurrency, "N closed loops for load (default 8)");
      ("--watch", Arg.Set watch, " with stats: keep polling and print diffs");
      ( "--verify",
        Arg.Set verify,
        " with query: demand a locally checked happens-before certificate" );
      ( "--interval",
        Arg.Set_float interval,
        "S polling period for stats --watch (default 1.0)" );
      ( "--shards",
        Arg.Set_int shards,
        "N federation mode: talk to N shard chains through a router" );
      ( "--shard",
        Arg.String
          (fun s ->
            match String.index_opt s '@' with
            | None -> raise (Arg.Bad ("--shard: expected i@ADDR, got " ^ s))
            | Some k -> (
                match
                  ( int_of_string_opt (String.sub s 0 k),
                    int_of_string_opt
                      (String.sub s (k + 1) (String.length s - k - 1)) )
                with
                | Some i, Some a when i >= 0 ->
                  shard_coordinators := (i, a) :: !shard_coordinators
                | _ -> raise (Arg.Bad ("--shard: expected i@ADDR, got " ^ s)))),
        "i@ADDR coordinator address of federation shard i (default 1000+i)" );
      ( "--fed-state",
        Arg.Set_string fed_state,
        "FILE federation cross-edge table carried between invocations \
         (default .kronos-fed.state; \"\" disables)" );
    ]
  in
  Arg.parse spec (fun a -> rest := a :: !rest) usage;
  let cmd = List.rev !rest in
  if !peers = [] then begin
    prerr_endline "kronos_cli: need at least one --peer";
    exit 2
  end;

  let loop = Event_loop.create () in
  let tcp =
    Tcp.create ~loop ~encode:Kronos_replication.Chain_codec.encode
      ~decode:Kronos_replication.Chain_codec.decode ()
  in
  List.iter (fun p -> Tcp.add_peer tcp p.addr ~host:p.host ~port:p.port) !peers;
  let net = Tcp.transport tcp in
  let client =
    Client.create ~net ~addr:!addr ~coordinator:!coordinator ~request_timeout:0.5 ()
  in
  (* Federation mode: one proxy per shard behind a router, claiming the
     address block right above this client's own addresses. *)
  let fed_endpoints =
    if !shards <= 0 then []
    else
      List.init !shards (fun i ->
          let coordinator =
            match List.assoc_opt i !shard_coordinators with
            | Some a -> a
            | None -> 1000 + i
          in
          { Router.shard = i; coordinator })
  in
  let router =
    match fed_endpoints with
    | [] -> None
    | endpoints ->
      Some
        (Router.create ~net ~addr:(!addr + 10) ~shards:endpoints
           ~request_timeout:0.5 ())
  in
  (* One-shot invocations must share the router's cross-edge table (the
     single-router discipline, DESIGN.md §12): load the previous
     invocation's table now, write ours back after anything mutating. *)
  (match router with
   | Some r when !fed_state <> "" && Sys.file_exists !fed_state -> (
     let ic = open_in_bin !fed_state in
     let s = really_input_string ic (in_channel_length ic) in
     close_in ic;
     match Router.restore r s with
     | Ok () -> ()
     | Error m ->
       prerr_endline
         ("kronos_cli: unreadable federation state " ^ !fed_state ^ ": " ^ m);
       exit 2)
   | _ -> ());
  let save_fed_state () =
    match router with
    | Some r when !fed_state <> "" ->
      let tmp = !fed_state ^ ".tmp" in
      let oc = open_out_bin tmp in
      output_string oc (Router.dump r);
      close_out oc;
      Sys.rename tmp !fed_state
    | _ -> ()
  in
  (* Dial every replica now so the tail learns our return route before the
     first request reaches it. *)
  Tcp.connect_peers tcp;

  let fail_timeout () =
    save_fed_state ();
    prerr_endline "kronos_cli: request timed out";
    exit 1
  in
  let fail_error e =
    save_fed_state ();
    Format.eprintf "kronos_cli: %a@." Kronos_service.Error.pp e;
    exit 1
  in
  (* Run the event loop until one asynchronous call completes. *)
  let await f =
    let result = ref None in
    f (fun x -> result := Some x);
    if not
         (Event_loop.run_until loop
            ~deadline:(Event_loop.now loop +. !timeout +. 2.0)
            (fun () -> !result <> None))
    then fail_timeout ();
    Option.get !result
  in
  (* The client-side order cache counters, printed wherever server-side
     numbers appear so the client's cache can be read beside the server's
     label and BFS counters. *)
  let print_cache_stats ~prefix =
    match Client.cache_stats client with
    | None -> Printf.printf "%sclient order cache disabled\n" prefix
    | Some s ->
      Printf.printf
        "%sclient.order_cache.size      %d/%d\n\
         %sclient.order_cache.hits      %d\n\
         %sclient.order_cache.misses    %d\n\
         %sclient.order_cache.prefills  %d\n\
         %sclient.order_cache.evictions %d\n\
         %sclient.order_cache.hit_rate  %.1f%%\n"
        prefix s.Order_cache.stat_size s.Order_cache.stat_capacity
        prefix s.Order_cache.stat_hits
        prefix s.Order_cache.stat_misses
        prefix s.Order_cache.stat_prefills
        prefix s.Order_cache.stat_evictions
        prefix (100. *. Order_cache.hit_rate s);
      flush stdout
  in
  let fmt_value v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.9g" v
  in
  let print_samples ?prev samples =
    let width =
      List.fold_left (fun w (n, _) -> max w (String.length n)) 0 samples
    in
    List.iter
      (fun (name, v) ->
        match prev with
        | None -> Printf.printf "%-*s  %s\n" width name (fmt_value v)
        | Some tbl -> (
            match Hashtbl.find_opt tbl name with
            | Some old when old = v -> ()
            | Some old ->
              Printf.printf "%-*s  %s  (%+g)\n" width name (fmt_value v)
                (v -. old)
            | None -> Printf.printf "%-*s  %s  (new)\n" width name (fmt_value v)))
      samples;
    (* derived: share of reachability probes the chain-label index answered
       without a BFS (DESIGN.md §15) *)
    (match
       ( prev,
         List.assoc_opt "kronos_engine_label_hits_total" samples,
         List.assoc_opt "kronos_engine_label_misses_total" samples )
     with
     | None, Some h, Some m when h +. m > 0. ->
       Printf.printf "%-*s  %.1f%%\n" width "kronos_engine_label_hit_rate"
         (100. *. h /. (h +. m))
     | _ -> ());
    flush stdout
  in
  let run_load () =
    let lat = ref [] in
    let completed = ref 0 in
    let failures = ref 0 in
    let per_loop = max 1 (!ops / !concurrency) in
    let live = ref !concurrency in
    let started = Unix.gettimeofday () in
    (* Each closed loop alternates create_event with an assign_order that
       chains the new event after the previous one — the paper's
       "serialization" pattern — measuring each call's latency. *)
    let rec step prev n =
      if n = 0 then decr live
      else begin
        let t0 = Unix.gettimeofday () in
        Client.create_event client ~timeout:!timeout (function
          | Error _ ->
            incr failures;
            step prev (n - 1)
          | Ok e -> (
            lat := (Unix.gettimeofday () -. t0) :: !lat;
            incr completed;
            match prev with
            | None -> step (Some e) (n - 1)
            | Some p ->
              let t1 = Unix.gettimeofday () in
              Client.assign_order client ~timeout:!timeout
                [ Order.must_before p e ]
                (fun r ->
                  (match r with
                   | Ok _ ->
                     lat := (Unix.gettimeofday () -. t1) :: !lat;
                     incr completed
                   | Error _ -> incr failures);
                  step (Some e) (n - 1))))
      end
    in
    for _ = 1 to !concurrency do
      step None per_loop
    done;
    Event_loop.run_forever loop ~stop:(fun () -> !live = 0);
    let elapsed = Unix.gettimeofday () -. started in
    let sorted = Array.of_list !lat in
    Array.sort compare sorted;
    Printf.printf "ops        %d (%d failed)\n" !completed !failures;
    Printf.printf "elapsed    %.3f s\n" elapsed;
    Printf.printf "throughput %.0f op/s\n" (float_of_int !completed /. elapsed);
    Printf.printf "latency    p50 %.3f ms  p95 %.3f ms  p99 %.3f ms\n"
      (1e3 *. percentile sorted 0.50)
      (1e3 *. percentile sorted 0.95)
      (1e3 *. percentile sorted 0.99);
    print_cache_stats ~prefix:""
  in
  (* Fetch one replica's process-wide metrics via the Get_stats admin RPC.
     The reply bypasses the proxy (which only understands chain responses),
     so it is received on a dedicated address with a raw handler. *)
  let run_stats target =
    let stats_addr = !addr + 1 in
    let received = ref None in
    Transport.register net stats_addr (fun ~src:_ msg ->
        match (msg : Chain.msg) with
        | Chain.Stats_is { samples } -> received := Some samples
        | _ -> ());
    let request () =
      Transport.send net ~src:stats_addr ~dst:target
        (Chain.Get_stats { client = stats_addr })
    in
    let await_reply () =
      if not
           (Event_loop.run_until loop
              ~deadline:(Event_loop.now loop +. !timeout)
              (fun () -> !received <> None))
      then fail_timeout ();
      let samples = Option.get !received in
      received := None;
      samples
    in
    if not !watch then begin
      print_samples (request (); await_reply ());
      print_cache_stats ~prefix:""
    end
    else begin
      let stop = ref false in
      Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
      let prev = Hashtbl.create 256 in
      let first = ref true in
      while not !stop do
        let samples = (request (); await_reply ()) in
        if !first then begin
          print_samples samples;
          print_cache_stats ~prefix:""
        end
        else begin
          Printf.printf "--\n";
          print_samples ~prev samples
        end;
        first := false;
        List.iter (fun (n, v) -> Hashtbl.replace prev n v) samples;
        ignore
          (Event_loop.run_until loop
             ~deadline:(Event_loop.now loop +. !interval)
             (fun () -> !stop))
      done
    end
  in
  (* Federated load: the closed loops are dealt round-robin over the
     shards; each loop chains events on its own shard (create, assign
     prev -> e through the router, then query the pair back), so the
     report can break assign/query latency down per shard. *)
  let run_load_fed r =
    let n_shards = Router.shard_count r in
    let assign_lat = Array.make n_shards [] in
    let query_lat = Array.make n_shards [] in
    let completed = ref 0 in
    let failures = ref 0 in
    let per_loop = max 1 (!ops / !concurrency) in
    let live = ref !concurrency in
    let started = Unix.gettimeofday () in
    let shard_of_loop = Array.of_list (Router.shard_ids r) in
    let slot =
      let tbl = Hashtbl.create 8 in
      Array.iteri (fun i s -> Hashtbl.replace tbl s i) shard_of_loop;
      Hashtbl.find tbl
    in
    let rec step shard prev n =
      if n = 0 then decr live
      else
        let c = Option.get (Router.client_of r shard) in
        Client.create_event c ~timeout:!timeout (function
          | Error _ ->
            incr failures;
            step shard prev (n - 1)
          | Ok e -> (
            incr completed;
            let fe = Fid.make ~shard e in
            match prev with
            | None -> step shard (Some fe) (n - 1)
            | Some p ->
              let t1 = Unix.gettimeofday () in
              Router.assign_order r ~timeout:!timeout
                [ Router.must_before p fe ]
                (fun res ->
                  (match res with
                  | Ok _ ->
                    let s = slot shard in
                    assign_lat.(s) <-
                      (Unix.gettimeofday () -. t1) :: assign_lat.(s);
                    incr completed
                  | Error _ -> incr failures);
                  let t2 = Unix.gettimeofday () in
                  Router.query_order r ~timeout:!timeout
                    [ (p, fe) ]
                    (fun res2 ->
                      (match res2 with
                      | Ok _ ->
                        let s = slot shard in
                        query_lat.(s) <-
                          (Unix.gettimeofday () -. t2) :: query_lat.(s);
                        incr completed
                      | Error _ -> incr failures);
                      step shard (Some fe) (n - 1)))))
    in
    for l = 0 to !concurrency - 1 do
      step shard_of_loop.(l mod n_shards) None per_loop
    done;
    Event_loop.run_forever loop ~stop:(fun () -> !live = 0);
    let elapsed = Unix.gettimeofday () -. started in
    Printf.printf "ops        %d (%d failed) over %d shards\n" !completed
      !failures n_shards;
    Printf.printf "elapsed    %.3f s\n" elapsed;
    Printf.printf "throughput %.0f op/s\n" (float_of_int !completed /. elapsed);
    let report what lats =
      Array.iteri
        (fun s l ->
          let sorted = Array.of_list l in
          Array.sort compare sorted;
          Printf.printf
            "shard%d.%s  p50 %.3f ms  p95 %.3f ms  p99 %.3f ms  (%d ops)\n"
            shard_of_loop.(s) what
            (1e3 *. percentile sorted 0.50)
            (1e3 *. percentile sorted 0.95)
            (1e3 *. percentile sorted 0.99)
            (Array.length sorted))
        lats
    in
    report "assign" assign_lat;
    report "query " query_lat;
    flush stdout
  in
  (* Federated stats: scatter Get_stats to every shard's coordinator and
     print one merged registry (fed.* aggregates + shardN.* series). *)
  let run_stats_fed r =
    let targets =
      List.map (fun e -> (e.Router.shard, e.Router.coordinator)) fed_endpoints
    in
    let fetch k =
      let result = ref None in
      Router.merged_stats r ~timeout:!timeout ~targets (fun per ->
          result := Some per);
      if not
           (Event_loop.run_until loop
              ~deadline:(Event_loop.now loop +. !timeout +. 2.0)
              (fun () -> !result <> None))
      then fail_timeout ();
      let per = Option.get !result in
      if per = [] then begin
        prerr_endline "kronos_cli: no shard answered Get_stats";
        exit 1
      end;
      if List.length per < List.length targets then
        Printf.eprintf "kronos_cli: only %d/%d shards answered\n%!"
          (List.length per) (List.length targets);
      k (Router.merge_samples per)
    in
    if not !watch then fetch (fun samples -> print_samples samples)
    else begin
      let stop = ref false in
      Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
      let prev = Hashtbl.create 256 in
      let first = ref true in
      while not !stop do
        fetch (fun samples ->
            if !first then print_samples samples
            else begin
              Printf.printf "--\n";
              print_samples ~prev samples
            end;
            first := false;
            List.iter (fun (n, v) -> Hashtbl.replace prev n v) samples);
        ignore
          (Event_loop.run_until loop
             ~deadline:(Event_loop.now loop +. !interval)
             (fun () -> !stop))
      done
    end
  in
  (* Certificates are per-shard objects (a chain commits only its own
     graph), so verified reads are single-chain mode only for now. *)
  let fail_fed_verify what =
    prerr_endline
      ("kronos_cli: " ^ what
     ^ " is not supported in federation mode (certificates cover one \
        shard's chain; see DESIGN.md §13)");
    exit 2
  in
  let print_cert (c : Kronos_certify.Certificate.t) =
    Printf.printf "source  %s  commit %s\n" (string_of_event c.source)
      (Chain_digest.to_hex c.source_commit);
    Printf.printf "target  %s  commit %s\n" (string_of_event c.target)
      (Chain_digest.to_hex c.target_commit);
    Printf.printf "path    %d edge(s), %d byte(s) encoded\n"
      (Kronos_certify.Certificate.path_length c)
      (String.length (Kronos_certify.Certificate.encode c));
    List.iter
      (fun (pred, event) ->
        Printf.printf "        %s -> %s\n" (string_of_event pred)
          (string_of_event event))
      (List.rev (Kronos_certify.Certificate.path_edges c));
    flush stdout
  in
  let pp_unproved ppf (rel : Order.relation) =
    match rel with
    | Order.Before | Order.After -> Format.fprintf ppf "  (unproved)"
    | Order.Concurrent | Order.Same -> Format.fprintf ppf "  (nothing to prove)"
  in
  let fid_of_string s =
    match Fid.of_string s with
    | Some f -> f
    | None ->
      prerr_endline
        ("kronos_cli: not a federated event id (expected S/ID): " ^ s);
      exit 2
  in
  (match (cmd, router) with
   | [ "create" ], Some r -> (
       match await (fun k -> Router.create_event r ~timeout:!timeout k) with
       | Ok f -> Printf.printf "%s\n" (Fid.to_string f)
       | Error e -> fail_error e)
   | [ "create" ], None -> (
       match await (Client.create_event client ~timeout:!timeout) with
       | Ok e -> Printf.printf "%s\n" (string_of_event e)
       | Error e -> fail_error e)
   | [ "assign"; e1; e2 ], Some r -> (
       let f1 = fid_of_string e1 and f2 = fid_of_string e2 in
       match
         await
           (Router.assign_order r ~timeout:!timeout
              [ Router.must_before f1 f2 ])
       with
       | Ok [ outcome ] ->
         save_fed_state ();
         Format.printf "%a@." Order.pp_outcome outcome
       | Ok _ -> assert false
       | Error e -> fail_error e)
   | [ "assign"; e1; e2 ], None -> (
       let e1 = event_of_string e1 and e2 = event_of_string e2 in
       match
         await
           (Client.assign_order client ~timeout:!timeout
              [ Order.must_before e1 e2 ])
       with
       | Ok [ outcome ] -> Format.printf "%a@." Order.pp_outcome outcome
       | Ok _ -> assert false
       | Error e -> fail_error e)
   | [ "query"; _; _ ], Some _ when !verify -> fail_fed_verify "query --verify"
   | [ "query"; e1; e2 ], Some r -> (
       let f1 = fid_of_string e1 and f2 = fid_of_string e2 in
       match await (Router.query_order r ~timeout:!timeout [ (f1, f2) ]) with
       | Ok [ rel ] -> Format.printf "%a@." Order.pp_relation rel
       | Ok _ -> assert false
       | Error e -> fail_error e)
   | [ "query"; e1; e2 ], None when !verify -> (
       let e1 = event_of_string e1 and e2 = event_of_string e2 in
       match
         await (Client.query_verified client ~timeout:!timeout e1 e2)
       with
       | Ok (rel, Some c) ->
         Format.printf "%a  (verified, %d-edge certificate)@."
           Order.pp_relation rel
           (Kronos_certify.Certificate.path_length c)
       | Ok (rel, None) ->
         Format.printf "%a%a@." Order.pp_relation rel pp_unproved rel
       | Error e -> fail_error e)
   | [ "query"; e1; e2 ], None -> (
       let e1 = event_of_string e1 and e2 = event_of_string e2 in
       match await (Client.query_order_e client ~timeout:!timeout [ (e1, e2) ]) with
       | Ok ([ rel ], epoch) ->
         Format.printf "%a  (epoch %Ld)@." Order.pp_relation rel epoch
       | Ok _ -> assert false
       | Error e -> fail_error e)
   | [ "proof"; _; _ ], Some _ -> fail_fed_verify "proof"
   | [ "proof"; e1; e2 ], None -> (
       let e1 = event_of_string e1 and e2 = event_of_string e2 in
       match
         await (Client.query_verified client ~timeout:!timeout e1 e2)
       with
       | Ok (rel, Some c) ->
         Format.printf "%a@." Order.pp_relation rel;
         print_cert c
       | Ok (rel, None) ->
         Format.printf "%a%a@." Order.pp_relation rel pp_unproved rel
       | Error e -> fail_error e)
   | [ "release"; e ], Some r -> (
       match
         await (Router.release_ref r ~timeout:!timeout (fid_of_string e))
       with
       | Ok n ->
         save_fed_state ();
         Printf.printf "collected %d\n" n
       | Error e -> fail_error e)
   | [ "release"; e ], None -> (
       match await (Client.release_ref client ~timeout:!timeout (event_of_string e)) with
       | Ok n -> Printf.printf "collected %d\n" n
       | Error e -> fail_error e)
   | [ "load" ], Some r ->
     run_load_fed r;
     save_fed_state ()
   | [ "load" ], None -> run_load ()
   | [ "stats" ], Some r -> run_stats_fed r
   | [ "stats" ], None -> run_stats (List.hd (List.rev !peers)).addr
   | [ "stats"; target ], _ -> (
       match int_of_string_opt target with
       | Some a -> run_stats a
       | None ->
         prerr_endline ("kronos_cli: stats: not an address: " ^ target);
         exit 2)
   | _ ->
     prerr_endline usage;
     exit 2);
  Tcp.shutdown tcp
