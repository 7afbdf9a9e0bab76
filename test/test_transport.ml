(* Transport layer tests: chain-message wire codec under arbitrary stream
   re-chunking, the epoll event loop, and the real TCP runtime on
   loopback sockets. *)

open Kronos
open Kronos_wire
module Chain = Kronos_replication.Chain
module Chain_codec = Kronos_replication.Chain_codec
module Transport = Kronos_transport.Transport
module Event_loop = Kronos_transport.Event_loop
module Tcp = Kronos_transport.Tcp_transport

(* {1 Chain.msg streaming round trips} *)

let sample_entry = (4, 2000, 17, "cmd:payload")

(* One value of every constructor, so the deterministic stream tests cover
   the full message surface. *)
let all_msgs : Chain.msg list =
  [
    Client_write { client = 2000; req_id = 1; cmd = "add:1" };
    Client_read { client = 2001; req_id = 2; cmd = "get" };
    Forward { seq = 3; client = 2000; req_id = 1; cmd = "add:1" };
    Ack { seq = 3 };
    Reply { req_id = 1; resp = "ok" };
    Get_config { client = 2000 };
    Config_is { version = 4; chain = [ 0; 1; 2 ] };
    New_config { config = { version = 5; chain = [ 0; 2 ] }; fresh = None };
    New_config
      { config = { version = 6; chain = [ 0; 2; 9 ] }; fresh = Some (9, 42) };
    Ping;
    Pong { last_applied = 17 };
    Sync_state { entries = [ sample_entry; (5, 2001, 18, "") ] };
    Sync_snapshot { seq = 9; snapshot = "\x00\x01snapbytes"; entries = [ sample_entry ] };
    Join { addr = 9; last_applied = 7 };
  ]

let feed_stream r stream sizes =
  let out = ref [] in
  let pos = ref 0 in
  let sizes = ref sizes in
  while !pos < String.length stream do
    let n =
      match !sizes with
      | [] -> String.length stream - !pos
      | s :: rest ->
        sizes := rest;
        min s (String.length stream - !pos)
    in
    out := !out @ Frame.Reassembler.feed r (String.sub stream !pos n);
    pos := !pos + n
  done;
  !out

(* Every message type, framed back-to-back and delivered one byte at a
   time: the reassembler must hand back exactly the original sequence. *)
let test_stream_one_byte_feeds () =
  let stream =
    String.concat ""
      (List.map (fun m -> Frame.encode (Chain_codec.encode m)) all_msgs)
  in
  let r = Frame.Reassembler.create () in
  let out = ref [] in
  String.iter (fun c -> out := !out @ Frame.Reassembler.feed r (String.make 1 c)) stream;
  let decoded = List.map Chain_codec.decode !out in
  Alcotest.(check bool) "all message types survive 1-byte feeds" true
    (decoded = all_msgs);
  Alcotest.(check int) "nothing left over" 0 (Frame.Reassembler.pending_bytes r)

(* A chunk boundary inside the length prefix itself. *)
let test_stream_split_header () =
  let msg = List.nth all_msgs 2 in
  let framed = Frame.encode (Chain_codec.encode msg) in
  let r = Frame.Reassembler.create () in
  let first = Frame.Reassembler.feed r (String.sub framed 0 2) in
  Alcotest.(check int) "no frame from half a header" 0 (List.length first);
  let rest =
    Frame.Reassembler.feed r (String.sub framed 2 (String.length framed - 2))
  in
  Alcotest.(check bool) "completes across the split" true
    (List.map Chain_codec.decode rest = [ msg ])

let test_oversized_length_prefix_rejected () =
  let r = Frame.Reassembler.create ~max_frame:1024 () in
  let b = Codec.encoder () in
  Codec.put_u32 b 1025;
  (match Frame.Reassembler.feed r (Codec.to_string b) with
   | exception Codec.Decode_error _ -> ()
   | _ -> Alcotest.fail "expected oversized frame rejection");
  (* a length prefix of garbage bytes announces ~4 GiB: also rejected *)
  let r = Frame.Reassembler.create () in
  match Frame.Reassembler.feed r "\xff\xff\xff\xff" with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "expected corrupt prefix rejection"

let test_corrupt_payload_rejected () =
  match Chain_codec.decode "\x63garbage" with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "expected decode error on bad tag"

let prop_chain_msg_roundtrip_rechunked =
  let open QCheck2 in
  let gen_addr = Gen.int_bound 5000 in
  let gen_str = Gen.string_size (Gen.int_bound 40) in
  let gen_entry =
    Gen.(
      map2
        (fun (seq, client) (req_id, cmd) -> (seq, client, req_id, cmd))
        (pair (int_bound 100_000) gen_addr)
        (pair (int_bound 10_000) gen_str))
  in
  let gen_config =
    Gen.(
      map2
        (fun version chain -> { Chain.version; chain })
        (int_bound 1000)
        (list_size (int_bound 6) gen_addr))
  in
  let gen_msg =
    Gen.(
      frequency
        [
          ( 2,
            map2
              (fun (client, req_id) cmd -> Chain.Client_write { client; req_id; cmd })
              (pair gen_addr (int_bound 10_000))
              gen_str );
          ( 1,
            map2
              (fun (client, req_id) cmd -> Chain.Client_read { client; req_id; cmd })
              (pair gen_addr (int_bound 10_000))
              gen_str );
          ( 2,
            map
              (fun (seq, client, req_id, cmd) ->
                Chain.Forward { seq; client; req_id; cmd })
              gen_entry );
          (1, map (fun seq -> Chain.Ack { seq }) (int_bound 100_000));
          ( 1,
            map2
              (fun req_id resp -> Chain.Reply { req_id; resp })
              (int_bound 10_000) gen_str );
          (1, map (fun client -> Chain.Get_config { client }) gen_addr);
          (1, map (fun c -> Chain.Config_is c) gen_config);
          ( 2,
            map2
              (fun config fresh -> Chain.New_config { config; fresh })
              gen_config
              (option (pair gen_addr (int_bound 100_000))) );
          (1, return Chain.Ping);
          (1, map (fun n -> Chain.Pong { last_applied = n }) (int_bound 100_000));
          ( 1,
            map
              (fun entries -> Chain.Sync_state { entries })
              (list_size (int_bound 8) gen_entry) );
          ( 1,
            map2
              (fun (seq, snapshot) entries ->
                Chain.Sync_snapshot { seq; snapshot; entries })
              (pair (int_bound 100_000) gen_str)
              (list_size (int_bound 8) gen_entry) );
          ( 1,
            map2
              (fun addr last_applied -> Chain.Join { addr; last_applied })
              gen_addr (int_bound 100_000) );
        ])
  in
  Test.make ~name:"chain msg roundtrip through re-chunked streams" ~count:300
    Gen.(
      pair
        (list_size (int_bound 8) gen_msg)
        (list_size (int_bound 40) (int_range 1 7)))
    (fun (msgs, sizes) ->
      let stream =
        String.concat ""
          (List.map (fun m -> Frame.encode (Chain_codec.encode m)) msgs)
      in
      let out = feed_stream (Frame.Reassembler.create ()) stream sizes in
      List.map Chain_codec.decode out = msgs)

(* The service-level request/response codec must survive the same streaming
   treatment (kronosd carries them as chain command/response payloads). *)
let prop_service_payload_roundtrip_rechunked =
  let open QCheck2 in
  let gen_event =
    Gen.(
      map2
        (fun s g -> Event_id.make ~slot:s ~gen:g)
        (int_bound 10_000) (int_bound 50))
  in
  let gen_req =
    Gen.(
      frequency
        [
          (1, return Message.Create_event);
          (1, map (fun e -> Message.Acquire_ref e) gen_event);
          (1, map (fun e -> Message.Release_ref e) gen_event);
          ( 2,
            map2
              (fun min_epoch pairs -> Message.Query_order { min_epoch; pairs })
              ui64
              (list_size (int_bound 10) (pair gen_event gen_event)) );
        ])
  in
  Test.make ~name:"service requests roundtrip through re-chunked streams"
    ~count:200
    Gen.(
      pair
        (list_size (int_bound 6) gen_req)
        (list_size (int_bound 30) (int_range 1 5)))
    (fun (reqs, sizes) ->
      let stream =
        String.concat ""
          (List.map (fun r -> Frame.encode (Message.encode_request r)) reqs)
      in
      let out = feed_stream (Frame.Reassembler.create ()) stream sizes in
      List.length out = List.length reqs
      && List.for_all2
           (fun bytes req -> Message.request_equal (Message.decode_request bytes) req)
           out reqs)

(* {1 Event loop} *)

let test_event_loop_timer_order () =
  let loop = Event_loop.create () in
  let fired = ref [] in
  ignore (Event_loop.schedule loop ~delay:0.03 (fun () -> fired := "c" :: !fired));
  ignore (Event_loop.schedule loop ~delay:0.01 (fun () -> fired := "a" :: !fired));
  ignore (Event_loop.schedule loop ~delay:0.02 (fun () -> fired := "b" :: !fired));
  Event_loop.run_for loop 0.08;
  Alcotest.(check (list string)) "deadline order" [ "a"; "b"; "c" ]
    (List.rev !fired)

let test_event_loop_every_cancel () =
  let loop = Event_loop.create () in
  let count = ref 0 in
  let timer = ref None in
  timer :=
    Some
      (Event_loop.every loop ~period:0.005 (fun () ->
           incr count;
           if !count = 3 then Option.iter Event_loop.cancel !timer));
  Event_loop.run_for loop 0.05;
  Alcotest.(check int) "stopped after self-cancel" 3 !count;
  Alcotest.(check int) "no timers left" 0 (Event_loop.pending_timers loop)

(* A client cancels each acknowledged request's timeout long before it is
   due: the cancelled entries must leave the timer heap rather than pile
   up until their deadlines, without disturbing the live timers. *)
let test_event_loop_cancel_many () =
  let loop = Event_loop.create () in
  let fired = ref [] in
  let survivor delay name =
    ignore
      (Event_loop.schedule loop ~delay (fun () -> fired := name :: !fired))
  in
  for i = 1 to 10_000 do
    let timer =
      Event_loop.schedule loop ~delay:3600.0 (fun () ->
          fired := "cancelled" :: !fired)
    in
    Event_loop.cancel timer;
    (* survivors arrive between heap rebuilds, out of deadline order *)
    match i with
    | 2_500 -> survivor 0.03 "c"
    | 5_000 -> survivor 0.01 "a"
    | 7_500 -> survivor 0.02 "b"
    | _ -> ()
  done;
  Alcotest.(check int) "only survivors pending" 3
    (Event_loop.pending_timers loop);
  Event_loop.run_for loop 0.08;
  Alcotest.(check (list string)) "survivors fire in deadline order"
    [ "a"; "b"; "c" ] (List.rev !fired);
  Alcotest.(check int) "no timers left" 0 (Event_loop.pending_timers loop);
  let far =
    List.init 10_000 (fun _ -> Event_loop.schedule loop ~delay:3600.0 ignore)
  in
  List.iter Event_loop.cancel far;
  Alcotest.(check int) "far-future timers all cancelled" 0
    (Event_loop.pending_timers loop)

let test_event_loop_fd_readiness () =
  let loop = Event_loop.create () in
  let r, w = Unix.pipe () in
  Unix.set_nonblock r;
  let got = ref "" in
  Event_loop.watch_read loop r (fun () ->
      let buf = Bytes.create 16 in
      let n = Unix.read r buf 0 16 in
      got := Bytes.sub_string buf 0 n);
  ignore (Unix.write_substring w "ping" 0 4);
  let ok = Event_loop.run_until loop ~deadline:(Event_loop.now loop +. 1.0)
      (fun () -> !got <> "") in
  Event_loop.forget loop r;
  Unix.close r;
  Unix.close w;
  Alcotest.(check bool) "read callback ran" true ok;
  Alcotest.(check string) "bytes seen" "ping" !got

(* One pass runs read callbacks, then deferred work, then write
   callbacks: what a read callback defers precedes a write callback that
   is ready in the same pass. *)
let test_event_loop_defer_before_writes () =
  let loop = Event_loop.create () in
  let r, w = Unix.pipe () in
  Unix.set_nonblock r;
  let log = ref [] in
  let note what = log := (what, Event_loop.ticks loop) :: !log in
  Event_loop.watch_read loop r (fun () ->
      ignore (Unix.read r (Bytes.create 1) 0 1);
      note "read";
      Event_loop.defer loop (fun () ->
          note "deferred";
          Event_loop.defer loop (fun () -> note "nested")));
  (* a pipe's write end is writable from the start *)
  Event_loop.watch_write loop w (fun () ->
      note "write";
      Event_loop.unwatch_write loop w);
  ignore (Unix.write_substring w "x" 0 1);
  Event_loop.run_once loop ~max_wait:1.0 ();
  Event_loop.forget loop r;
  Unix.close r;
  Unix.close w;
  Alcotest.(check (list (pair string int))) "read, deferred, write in one pass"
    [ ("read", 1); ("deferred", 1); ("nested", 1); ("write", 1) ]
    (List.rev !log)

(* Work deferred from a timer runs after the timers of its pass, so before
   the next pass's write callbacks. *)
let test_event_loop_defer_from_timer () =
  let loop = Event_loop.create () in
  let r, w = Unix.pipe () in
  let log = ref [] in
  let note what = log := (what, Event_loop.ticks loop) :: !log in
  ignore
    (Event_loop.schedule loop ~delay:0.0 (fun () ->
         note "timer";
         Event_loop.defer loop (fun () -> note "deferred")));
  Event_loop.watch_write loop w (fun () -> note "write");
  Event_loop.run_once loop ~max_wait:1.0 ();
  Event_loop.run_once loop ~max_wait:1.0 ();
  Event_loop.forget loop w;
  Unix.close r;
  Unix.close w;
  Alcotest.(check (list (pair string int))) "deferred before the next write"
    [ ("write", 1); ("timer", 1); ("deferred", 1); ("write", 2) ]
    (List.rev !log)

(* {1 TCP runtime on loopback sockets} *)

let string_tcp loop = Tcp.create ~loop ~encode:Fun.id ~decode:Fun.id ()

(* Client/server round trip where the client has no listener: the reply
   must follow the learned return route of the client's own connection. *)
let test_tcp_round_trip_learned_route () =
  let loop = Event_loop.create () in
  let server = string_tcp loop in
  let client = string_tcp loop in
  let port = Tcp.listen server ~port:0 () in
  Tcp.add_peer client 1 ~host:"127.0.0.1" ~port;
  let snet = Tcp.transport server and cnet = Tcp.transport client in
  let got = ref None and reply = ref None in
  Transport.register snet 1 (fun ~src m ->
      got := Some (src, m);
      Transport.send snet ~src:1 ~dst:src ("re:" ^ m));
  Transport.register cnet 2 (fun ~src m -> reply := Some (src, m));
  Transport.send cnet ~src:2 ~dst:1 "hello";
  let ok =
    Event_loop.run_until loop ~deadline:(Event_loop.now loop +. 5.0) (fun () ->
        !reply <> None)
  in
  Alcotest.(check bool) "completed" true ok;
  Alcotest.(check (option (pair int string))) "server got" (Some (2, "hello")) !got;
  Alcotest.(check (option (pair int string))) "client got reply" (Some (1, "re:hello"))
    !reply;
  Tcp.shutdown client;
  Tcp.shutdown server

(* A payload far larger than the 64 KiB read buffer exercises partial reads
   (and usually short writes) on both sides. *)
let test_tcp_large_message () =
  let loop = Event_loop.create () in
  let server = string_tcp loop in
  let client = string_tcp loop in
  let port = Tcp.listen server ~port:0 () in
  Tcp.add_peer client 1 ~host:"127.0.0.1" ~port;
  let snet = Tcp.transport server and cnet = Tcp.transport client in
  let big = String.init 300_000 (fun i -> Char.chr (i land 0xff)) in
  let got = ref None in
  Transport.register snet 1 (fun ~src:_ m -> got := Some m);
  Transport.register cnet 2 (fun ~src:_ _ -> ());
  Transport.send cnet ~src:2 ~dst:1 big;
  let ok =
    Event_loop.run_until loop ~deadline:(Event_loop.now loop +. 5.0) (fun () ->
        !got <> None)
  in
  Alcotest.(check bool) "completed" true ok;
  Alcotest.(check bool) "payload intact" true (!got = Some big);
  Tcp.shutdown client;
  Tcp.shutdown server

let test_tcp_local_short_circuit_and_unroutable () =
  let loop = Event_loop.create () in
  let t = string_tcp loop in
  let net = Tcp.transport t in
  let got = ref None in
  Transport.register net 5 (fun ~src m -> got := Some (src, m));
  Transport.send net ~src:9 ~dst:5 "local";
  Alcotest.(check (option (pair int string))) "not delivered re-entrantly" None !got;
  Event_loop.run_for loop 0.02;
  Alcotest.(check (option (pair int string))) "delivered via loop" (Some (9, "local"))
    !got;
  let dropped_before = Tcp.dropped t in
  Transport.send net ~src:9 ~dst:404 "nowhere";
  Alcotest.(check int) "unroutable send counted as dropped" (dropped_before + 1)
    (Tcp.dropped t);
  Tcp.shutdown t

(* {2 Raw-socket peers}

   These tests put a hand-driven socket on one side of a runtime, so they
   can feed it arbitrary bytes or stop reading altogether. *)

let envelope_msg ~src ~dst body =
  let b = Codec.encoder () in
  Codec.put_u8 b 1;
  Codec.put_i64 b (Int64.of_int src);
  Codec.put_i64 b (Int64.of_int dst);
  Codec.put_string b body;
  Frame.encode (Codec.to_string b)

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let raw_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* A bad envelope takes the connection down; frames behind it in the same
   read belong to the dead connection and must not reach a handler. *)
let test_tcp_bad_envelope_stops_dispatch () =
  let loop = Event_loop.create () in
  let server = string_tcp loop in
  let port = Tcp.listen server ~port:0 () in
  let got = ref [] in
  Transport.register (Tcp.transport server) 1 (fun ~src:_ m -> got := m :: !got);
  let run_until pred =
    ignore (Event_loop.run_until loop ~deadline:(Event_loop.now loop +. 5.0) pred)
  in
  (* control: the same message alone on a healthy connection is delivered *)
  let good = raw_connect port in
  write_all good (envelope_msg ~src:7 ~dst:1 "alone");
  run_until (fun () -> !got <> []);
  Alcotest.(check (list string)) "valid frame delivered" [ "alone" ] !got;
  (* [bad envelope; valid Msg] written at once arrive in one read *)
  let bad = raw_connect port in
  write_all bad (Frame.encode "\x07" ^ envelope_msg ~src:7 ~dst:1 "after-bad");
  run_until (fun () -> Tcp.connections server = 1);
  Event_loop.run_for loop 0.05;
  Alcotest.(check int) "bad connection closed" 1 (Tcp.connections server);
  Alcotest.(check (list string)) "nothing dispatched after the bad envelope"
    [ "alone" ] !got;
  Unix.close good;
  Unix.close bad;
  Tcp.shutdown server

let metric name =
  match List.assoc_opt ("kronos_transport_" ^ name) (Kronos_metrics.samples ()) with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "metric %s missing" name

(* The peer side of [test_tcp_short_and_torn_writes]: a listener whose
   sockets have a tiny receive buffer, and a reader that reassembles the
   runtime's frames only when told to. *)
type peer = {
  listener : Unix.file_descr;
  mutable conn : Unix.file_descr option;
  mutable reasm : Frame.Reassembler.t;
  rbuf : Bytes.t;
  mutable bodies : string list;  (* Msg bodies received, newest first *)
}

let peer_create () =
  let l = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt l Unix.SO_REUSEADDR true;
  Unix.setsockopt_int l Unix.SO_RCVBUF 4096;
  Unix.bind l (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen l 4;
  Unix.set_nonblock l;
  { listener = l; conn = None; reasm = Frame.Reassembler.create ();
    rbuf = Bytes.create 997; bodies = [] }

let peer_port p =
  match Unix.getsockname p.listener with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> assert false

let peer_accept p =
  match p.conn with
  | Some _ -> ()
  | None -> (
      match Unix.accept p.listener with
      | fd, _ ->
        Unix.set_nonblock fd;
        p.conn <- Some fd;
        p.reasm <- Frame.Reassembler.create ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())

(* One small read, if anything is there. *)
let peer_read p =
  match p.conn with
  | None -> ()
  | Some fd -> (
      match Unix.read fd p.rbuf 0 (Bytes.length p.rbuf) with
      | n ->
        List.iter
          (fun payload ->
            let d = Codec.decoder payload in
            match Codec.get_u8 d with
            | 0 -> () (* HELLO *)
            | _ ->
              ignore (Codec.get_i64 d);
              ignore (Codec.get_i64 d);
              p.bodies <- Codec.get_string d :: p.bodies)
          (Frame.Reassembler.feed_sub p.reasm p.rbuf 0 n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())

let peer_kill p =
  Option.iter Unix.close p.conn;
  p.conn <- None

(* A paused reader behind a tiny receive buffer makes every flush of a
   deep backlog short.  Hundreds of mixed-size frames (one over 64 KiB)
   must still arrive whole and in order.  Then, with the reader paused
   again, the peer dies in the middle of a flush: the frame the last write
   tore is the only queued frame that may be lost, and every frame queued
   behind it is delivered, in order, over the redialed connection. *)
let test_tcp_short_and_torn_writes () =
  (* larger than the most a socket's send buffer can autotune to *)
  let big_frame =
    let wmem_max =
      try
        let ic = open_in "/proc/sys/net/ipv4/tcp_wmem" in
        let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
        Scanf.sscanf line " %d %d %d" (fun _ _ max -> max)
      with _ -> 4 * 1024 * 1024
    in
    max (12 * 1024 * 1024) ((2 * wmem_max) + (1024 * 1024))
  in
  let loop = Event_loop.create () in
  let tx =
    Tcp.create ~loop ~encode:Fun.id ~decode:Fun.id
      ~config:{ Tcp.default_config with max_buffer = 2 * big_frame }
      ()
  in
  let p = peer_create () in
  Tcp.add_peer tx 1 ~host:"127.0.0.1" ~port:(peer_port p);
  let net = Tcp.transport tx in
  Transport.register net 2 (fun ~src:_ _ -> ());
  let body i =
    let size = [| 3; 150; 1_000; 30_000; 40 |].(i mod 5) in
    let size = if i = 123 then 100_000 else size in
    Printf.sprintf "%04d:" i ^ String.make size (Char.chr (65 + (i mod 26)))
  in
  let framed b = Frame.header + 1 + 8 + 8 + 4 + String.length b in
  let spin seconds =
    let until = Event_loop.now loop +. seconds in
    while Event_loop.now loop < until do
      Event_loop.run_once loop ~max_wait:0.002 ();
      peer_accept p
    done
  in
  let pump pred =
    let deadline = Event_loop.now loop +. 20.0 in
    while (not (pred ())) && Event_loop.now loop < deadline do
      Event_loop.run_once loop ~max_wait:0.0 ();
      peer_accept p;
      peer_read p
    done
  in
  (* phase 1: at least 300 frames, in batches until a flush leaves some
     queued (the kernel's send buffer autotunes to megabytes, so how many
     that takes depends on the host); then a slow reader *)
  let queued0 = metric "write_queue_bytes" in
  let sent = ref [] and short = ref false in
  while (not !short) && List.length !sent < 2000 do
    for _ = 1 to 25 do
      let b = body (List.length !sent) in
      Transport.send net ~src:2 ~dst:1 b;
      sent := b :: !sent
    done;
    spin 0.005;
    short := List.length !sent >= 300 && metric "write_queue_bytes" > queued0
  done;
  let first = List.rev !sent in
  Alcotest.(check bool) "paused reader leaves the backlog short-written" true !short;
  pump (fun () -> List.length p.bodies = List.length first);
  Alcotest.(check bool) "all frames intact and in order" true
    (List.rev p.bodies = first);
  Alcotest.(check int) "queue drained" queued0 (metric "write_queue_bytes");
  (* phase 2: pause again and queue a frame no kernel buffer can take
     whole, then more frames behind it: the flush ends inside the big one *)
  let out0 = metric "bytes_out_total" in
  let torn = String.make big_frame 'T' in
  let behind = List.init 40 (fun i -> body (5000 + i)) in
  List.iter (fun b -> Transport.send net ~src:2 ~dst:1 b) (torn :: behind);
  spin 0.1;
  let written = metric "bytes_out_total" - out0 in
  Alcotest.(check bool) "the flush ended inside the head frame" true
    (written > 0 && written < framed torn);
  Alcotest.(check int) "the queue holds the torn frame and those behind it"
    (List.fold_left (fun n b -> n + framed b) 0 (torn :: behind))
    (metric "write_queue_bytes" - queued0);
  p.bodies <- [];
  peer_kill p;
  pump (fun () -> List.length p.bodies >= List.length behind);
  Alcotest.(check bool) "queued frames delivered after the redial, in order" true
    (List.rev p.bodies = behind);
  Alcotest.(check bool) "the torn frame is not delivered" false
    (List.mem torn p.bodies);
  Alcotest.(check int) "queue drained after the redial" queued0
    (metric "write_queue_bytes");
  peer_kill p;
  Unix.close p.listener;
  Tcp.shutdown tx

(* Sends from a handler only queue: no byte leaves before the pass's
   deferred work (a replica's WAL commit) has run.  The reply goes out on
   a connection that is already due for a write in the pass that runs the
   handler, the forward on a connection the send itself dials. *)
let test_tcp_handler_sends_wait_for_deferred () =
  let loop = Event_loop.create () in
  let server = string_tcp loop and client = string_tcp loop in
  let third = string_tcp loop in
  let port = Tcp.listen server ~port:0 () in
  let port3 = Tcp.listen third ~port:0 () in
  Tcp.add_peer client 1 ~host:"127.0.0.1" ~port;
  Tcp.add_peer server 3 ~host:"127.0.0.1" ~port:port3;
  let snet = Tcp.transport server and cnet = Tcp.transport client in
  let out = ref [] and got = ref [] and forwarded = ref None in
  Transport.register snet 1 (fun ~src m ->
      got := m :: !got;
      if m = "go" then begin
        let before = metric "bytes_out_total" in
        Transport.send snet ~src:1 ~dst:src "reply";
        Transport.send snet ~src:1 ~dst:3 "forward";
        let queued = metric "bytes_out_total" in
        Transport.defer snet (fun () ->
            out := [ before; queued; metric "bytes_out_total" ])
      end);
  Transport.register cnet 2 (fun ~src:_ m -> got := m :: !got);
  Transport.register (Tcp.transport third) 3 (fun ~src:_ m -> forwarded := Some m);
  let run_until pred =
    Alcotest.(check bool) "progress" true
      (Event_loop.run_until loop ~deadline:(Event_loop.now loop +. 5.0) pred)
  in
  (* connect, and let the server learn its route back *)
  Transport.send cnet ~src:2 ~dst:1 "hi";
  run_until (fun () -> List.mem "hi" !got);
  (* [go] is written; a frame the server then queues outside any handler
     leaves its connection due for a write in the pass that reads [go] *)
  let written = metric "bytes_out_total" in
  Transport.send cnet ~src:2 ~dst:1 "go";
  run_until (fun () -> metric "bytes_out_total" > written);
  Transport.send snet ~src:1 ~dst:2 "pre";
  run_until (fun () -> List.mem "reply" !got && !forwarded <> None);
  (match !out with
   | [ before; queued; deferred ] ->
     Alcotest.(check int) "nothing written inside the handler" before queued;
     Alcotest.(check int) "nothing written before the deferred work" before
       deferred
   | _ -> Alcotest.fail "deferred callback did not run");
  List.iter Tcp.shutdown [ client; server; third ]

(* The pass contract over a real pair: a handler's reply is flushed at the
   end of the pass that ran the handler, after the work it deferred, so
   the peer never reads it first and no extra pass is spent on it. *)
let test_tcp_reply_leaves_at_end_of_pass () =
  let loop = Event_loop.create () in
  let server = string_tcp loop and client = string_tcp loop in
  let port = Tcp.listen server ~port:0 () in
  Tcp.add_peer client 1 ~host:"127.0.0.1" ~port;
  let snet = Tcp.transport server and cnet = Tcp.transport client in
  let handled = ref None and deferred = ref None and got = ref [] in
  Transport.register snet 1 (fun ~src m ->
      if m = "go" then begin
        handled := Some (Event_loop.ticks loop, metric "bytes_out_total");
        Transport.send snet ~src:1 ~dst:src "reply";
        Transport.defer snet (fun () ->
            deferred := Some (Event_loop.ticks loop, metric "bytes_out_total"))
      end
      else Transport.send snet ~src:1 ~dst:src ("re:" ^ m));
  Transport.register cnet 2 (fun ~src:_ m ->
      got := (m, !deferred <> None) :: !got);
  let run_until pred =
    Alcotest.(check bool) "progress" true
      (Event_loop.run_until loop ~deadline:(Event_loop.now loop +. 5.0) pred)
  in
  (* warm up: both directions connected, routes learned, queues empty *)
  Transport.send cnet ~src:2 ~dst:1 "hi";
  run_until (fun () -> List.mem_assoc "re:hi" !got);
  Transport.send cnet ~src:2 ~dst:1 "go";
  let deadline = Event_loop.now loop +. 5.0 in
  let after = ref None in
  while !after = None && Event_loop.now loop < deadline do
    Event_loop.run_once loop ~max_wait:0.01 ();
    match !handled with
    | Some (tick, _) when tick = Event_loop.ticks loop ->
      after := Some (metric "bytes_out_total")
    | Some _ | None -> ()
  done;
  run_until (fun () -> List.mem_assoc "reply" !got);
  (match (!handled, !deferred, !after) with
   | Some (tick, before), Some (dtick, at_defer), Some after ->
     Alcotest.(check int) "deferred work ran in the handler's pass" tick dtick;
     Alcotest.(check int) "nothing written before the deferred work" before
       at_defer;
     Alcotest.(check int) "the reply was written in the handler's pass"
       (Frame.header + 1 + 8 + 8 + 4 + String.length "reply")
       (after - at_defer)
   | _ -> Alcotest.fail "the handler's pass was not observed");
  Alcotest.(check bool) "the peer read the reply after the deferred work" true
    (List.assoc "reply" !got);
  List.iter Tcp.shutdown [ client; server ]

(* The open-files limit, from /proc/self/limits; [None] where unreadable. *)
let open_files_limit () =
  match open_in "/proc/self/limits" with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> None
          | line when String.starts_with ~prefix:"Max open files" line -> (
            match
              List.filter (( <> ) "")
                (String.split_on_char ' '
                   (String.sub line 14 (String.length line - 14)))
            with
            | soft :: _ -> int_of_string_opt soft
            | [] -> None)
          | _ -> scan ()
        in
        scan ())

(* select(2) cannot watch a descriptor at or above FD_SETSIZE (1024), and
   a loop built on it failed as a whole near a thousand connections.  One
   loop here holds 1,100 loopback connections, both ends watched (over
   2,200 descriptors), and a frame crosses the highest-numbered one each
   way. *)
let test_loop_beyond_fd_setsize () =
  let conns = 1_100 in
  match open_files_limit () with
  | Some limit when limit >= 2_400 ->
    let loop = Event_loop.create () in
    let server = string_tcp loop in
    let port = Tcp.listen server ~port:0 () in
    let got = ref [] in
    Transport.register (Tcp.transport server) 1 (fun ~src m ->
        Transport.send (Tcp.transport server) ~src:1 ~dst:src ("re:" ^ m));
    let rbuf = Bytes.create 4096 in
    let clients =
      Array.init conns (fun i ->
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.set_nonblock fd;
          (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
           with Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ());
          let reasm = Frame.Reassembler.create () in
          Event_loop.watch_read loop fd (fun () ->
              match Unix.read fd rbuf 0 (Bytes.length rbuf) with
              | 0 -> Event_loop.forget loop fd
              | n ->
                List.iter
                  (fun payload ->
                    let d = Codec.decoder payload in
                    if Codec.get_u8 d = 1 then begin
                      ignore (Codec.get_i64 d);
                      ignore (Codec.get_i64 d);
                      got := (i, Codec.get_string d) :: !got
                    end)
                  (Frame.Reassembler.feed_sub reasm rbuf 0 n)
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
          (* accept as we go: the listen backlog is 128 *)
          if i mod 64 = 63 then Event_loop.run_for loop 0.002;
          fd)
    in
    let run_until what pred =
      Alcotest.(check bool) what true
        (Event_loop.run_until loop ~deadline:(Event_loop.now loop +. 20.0) pred)
    in
    run_until "every connection accepted" (fun () ->
        Tcp.connections server = conns);
    let top = ref 0 in
    Array.iteri (fun i fd -> if fd > clients.(!top) then top := i) clients;
    (* a descriptor is an int on Unix *)
    Alcotest.(check bool) "descriptors past FD_SETSIZE on both ends" true
      ((Obj.magic clients.(!top) : int) > 2 * 1024);
    write_all clients.(!top) (envelope_msg ~src:(5000 + !top) ~dst:1 "top");
    run_until "a reply on the highest-numbered connection" (fun () -> !got <> []);
    Alcotest.(check (list (pair int string))) "delivered on that connection"
      [ (!top, "re:top") ] !got;
    Array.iter
      (fun fd ->
        Event_loop.forget loop fd;
        Unix.close fd)
      clients;
    Tcp.shutdown server
  | limit ->
    Printf.printf "skipped: needs an open-files limit of 2400, have %s\n"
      (match limit with Some l -> string_of_int l | None -> "unknown");
    Alcotest.skip ()

let suites =
  [ ( "transport",
      [
        Alcotest.test_case "stream 1-byte feeds, all msg types" `Quick
          test_stream_one_byte_feeds;
        Alcotest.test_case "stream split header" `Quick test_stream_split_header;
        Alcotest.test_case "oversized length prefix" `Quick
          test_oversized_length_prefix_rejected;
        Alcotest.test_case "corrupt payload" `Quick test_corrupt_payload_rejected;
        QCheck_alcotest.to_alcotest prop_chain_msg_roundtrip_rechunked;
        QCheck_alcotest.to_alcotest prop_service_payload_roundtrip_rechunked;
        Alcotest.test_case "event loop timer order" `Quick
          test_event_loop_timer_order;
        Alcotest.test_case "event loop every/cancel" `Quick
          test_event_loop_every_cancel;
        Alcotest.test_case "event loop drops cancelled timers" `Quick
          test_event_loop_cancel_many;
        Alcotest.test_case "event loop fd readiness" `Quick
          test_event_loop_fd_readiness;
        Alcotest.test_case "event loop defers before writes" `Quick
          test_event_loop_defer_before_writes;
        Alcotest.test_case "event loop defers after timers" `Quick
          test_event_loop_defer_from_timer;
        Alcotest.test_case "tcp round trip via learned route" `Quick
          test_tcp_round_trip_learned_route;
        Alcotest.test_case "tcp large message" `Quick test_tcp_large_message;
        Alcotest.test_case "tcp local short-circuit" `Quick
          test_tcp_local_short_circuit_and_unroutable;
        Alcotest.test_case "tcp bad envelope stops dispatch" `Quick
          test_tcp_bad_envelope_stops_dispatch;
        Alcotest.test_case "tcp short and torn writes" `Quick
          test_tcp_short_and_torn_writes;
        Alcotest.test_case "tcp handler sends wait for deferred work" `Quick
          test_tcp_handler_sends_wait_for_deferred;
        Alcotest.test_case "tcp reply leaves at the end of its pass" `Quick
          test_tcp_reply_leaves_at_end_of_pass;
        Alcotest.test_case "event loop beyond FD_SETSIZE" `Quick
          test_loop_beyond_fd_setsize;
      ] );
  ]
