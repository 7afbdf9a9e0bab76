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
   route for replies. *)

open Kronos
module Chain = Kronos_replication.Chain
module Client = Kronos_service.Client
module Transport = Kronos_transport.Transport
module Tcp = Kronos_transport.Tcp_transport
module Event_loop = Kronos_transport.Event_loop

let usage =
  "kronos_cli [options] (create | assign E1 E2 | query [--verify] E1 E2 | \
   proof E1 E2 | release E | load | stats [ADDR])"

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
  (* Dial every replica now so the tail learns our return route before the
     first request reaches it. *)
  Tcp.connect_peers tcp;

  let fail_timeout () =
    prerr_endline "kronos_cli: request timed out";
    exit 1
  in
  let fail_error e =
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
  (match cmd with
   | [ "create" ] -> (
       match await (Client.create_event client ~timeout:!timeout) with
       | Ok e -> Printf.printf "%s\n" (string_of_event e)
       | Error e -> fail_error e)
   | [ "assign"; e1; e2 ] -> (
       let e1 = event_of_string e1 and e2 = event_of_string e2 in
       match
         await
           (Client.assign_order client ~timeout:!timeout
              [ Order.must_before e1 e2 ])
       with
       | Ok [ outcome ] -> Format.printf "%a@." Order.pp_outcome outcome
       | Ok _ -> assert false
       | Error e -> fail_error e)
   | [ "query"; e1; e2 ] when !verify -> (
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
   | [ "query"; e1; e2 ] -> (
       let e1 = event_of_string e1 and e2 = event_of_string e2 in
       match await (Client.query_order_e client ~timeout:!timeout [ (e1, e2) ]) with
       | Ok ([ rel ], epoch) ->
         Format.printf "%a  (epoch %Ld)@." Order.pp_relation rel epoch
       | Ok _ -> assert false
       | Error e -> fail_error e)
   | [ "proof"; e1; e2 ] -> (
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
   | [ "release"; e ] -> (
       match await (Client.release_ref client ~timeout:!timeout (event_of_string e)) with
       | Ok n -> Printf.printf "collected %d\n" n
       | Error e -> fail_error e)
   | [ "load" ] -> run_load ()
   | [ "stats" ] -> run_stats (List.hd (List.rev !peers)).addr
   | [ "stats"; target ] -> (
       match int_of_string_opt target with
       | Some a -> run_stats a
       | None ->
         prerr_endline ("kronos_cli: stats: not an address: " ^ target);
         exit 2)
   | _ ->
     prerr_endline usage;
     exit 2);
  Tcp.shutdown tcp
