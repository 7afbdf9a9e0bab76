open Kronos_wire

let log_src = Logs.Src.create "kronos.tcp" ~doc:"TCP transport runtime"

module Log = (val Logs.src_log log_src : Logs.LOG)

module M = struct
  let scope = Kronos_metrics.scope "transport"
  let bytes_in = Kronos_metrics.counter scope "bytes_in_total"
  let bytes_out = Kronos_metrics.counter scope "bytes_out_total"
  let frames = Kronos_metrics.counter scope "frames_decoded_total"
  let sent = Kronos_metrics.counter scope "messages_sent_total"
  let delivered = Kronos_metrics.counter scope "messages_delivered_total"
  let dropped = Kronos_metrics.counter scope "messages_dropped_total"
  let reconnects = Kronos_metrics.counter scope "reconnect_attempts_total"
  let connections = Kronos_metrics.gauge scope "connections_up"
  let queue_bytes = Kronos_metrics.gauge scope "write_queue_bytes"
end

type config = {
  max_frame : int;
  max_buffer : int;
  backoff_min : float;
  backoff_max : float;
  idle_timeout : float;
}

let default_config =
  {
    max_frame = Frame.max_frame;
    max_buffer = 16 * 1024 * 1024;
    backoff_min = 0.05;
    backoff_max = 5.0;
    idle_timeout = 60.0;
  }

type endpoint = string * int

(* One TCP connection, inbound or outbound.  [endpoint] is [Some] for
   outbound (dialed) connections, which reconnect on failure; inbound
   connections just die.

   Outgoing frames are laid end to end in [obuf.(ooff) .. obuf.(ofill - 1)]
   so one [write] can take the whole backlog; [lens] keeps their lengths
   (head first) so a write is accounted frame by frame and a torn head
   frame can be told apart from the whole frames queued behind it. *)
type conn = {
  mutable fd : Unix.file_descr option;
  ep : endpoint option;
  mutable state : [ `Connecting | `Up | `Down ];
  mutable obuf : Bytes.t;
  mutable ooff : int;
  mutable ofill : int;
  mutable lens : int Queue.t;
  mutable head_off : int;  (* bytes of the head frame already written *)
  mutable reasm : Frame.Reassembler.t;
  mutable backoff : float;
  mutable last_activity : float;
  mutable retry : Event_loop.timer option;
}

type 'm t = {
  loop : Event_loop.t;
  encode : 'm -> string;
  decode : string -> 'm;
  cfg : config;
  handlers : (int, src:int -> 'm -> unit) Hashtbl.t;
  peers : (int, endpoint) Hashtbl.t;
  conns : (endpoint, conn) Hashtbl.t;  (* outbound pool *)
  mutable inbound : conn list;
  learned : (int, conn) Hashtbl.t;  (* return routes *)
  mutable listeners : Unix.file_descr list;
  rand : Random.State.t;
  rbuf : Bytes.t;  (* receive buffer shared by every read of this runtime *)
  mutable housekeeper : Event_loop.timer option;
  mutable closed : bool;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable reconnects : int;
}

let sent t = t.sent
let delivered t = t.delivered
let dropped t = t.dropped
let reconnects t = t.reconnects

let connections t =
  Hashtbl.fold (fun _ c n -> if c.state = `Up then n + 1 else n) t.conns 0
  + List.length (List.filter (fun c -> c.state = `Up) t.inbound)

(* The gauges are process-wide sums over every runtime's connections, kept
   by deltas rather than recomputed: each transition into or out of [`Up]
   and each frame entering or leaving a write queue adjusts them. *)
let set_state conn state =
  if conn.state = `Up && state <> `Up then Kronos_metrics.Gauge.add M.connections (-1)
  else if conn.state <> `Up && state = `Up then Kronos_metrics.Gauge.add M.connections 1;
  conn.state <- state

let queued n = Kronos_metrics.Gauge.add M.queue_bytes n

(* Bytes of the frames queued, the head frame in full. *)
let out_bytes conn = conn.ofill - conn.ooff + conn.head_off

(* {1 Envelope framing}

   Every frame payload is either a HELLO announcing the sender's local
   addresses, or a routed message [src -> dst]. *)

let hello_tag = 0
let msg_tag = 1

let encode_hello addrs =
  let b = Codec.encoder () in
  Codec.put_u8 b hello_tag;
  Codec.put_list b (fun b a -> Codec.put_i64 b (Int64.of_int a)) addrs;
  Frame.encode (Codec.to_string b)

(* A message frame is [u32 len | u8 tag | i64 src | i64 dst | u32 body_len |
   body]: [msg_overhead] bytes in front of the body. *)
let msg_overhead = Frame.header + 1 + 8 + 8 + 4

type envelope =
  | Hello of int list
  | Msg of { src : int; dst : int; body : string }

let decode_envelope payload =
  let d = Codec.decoder payload in
  let env =
    match Codec.get_u8 d with
    | tag when tag = hello_tag ->
      Hello (Codec.get_list d (fun d -> Int64.to_int (Codec.get_i64 d)))
    | tag when tag = msg_tag ->
      let src = Int64.to_int (Codec.get_i64 d) in
      let dst = Int64.to_int (Codec.get_i64 d) in
      let body = Codec.get_string d in
      Msg { src; dst; body }
    | tag -> raise (Codec.Decode_error (Printf.sprintf "bad envelope tag %d" tag))
  in
  Codec.expect_end d;
  env

(* {1 Connection plumbing} *)

let sockaddr_of (host, port) = Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let drop t =
  t.dropped <- t.dropped + 1;
  Kronos_metrics.Counter.incr M.dropped

let new_conn t ep fd =
  {
    fd;
    ep;
    state = `Down;
    obuf = Bytes.empty;
    ooff = 0;
    ofill = 0;
    lens = Queue.create ();
    head_off = 0;
    reasm = Frame.Reassembler.create ~max_frame:t.cfg.max_frame ();
    backoff = t.cfg.backoff_min;
    last_activity = Event_loop.now t.loop;
    retry = None;
  }

let close_fd t conn =
  match conn.fd with
  | None -> ()
  | Some fd ->
    Event_loop.forget t.loop fd;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    conn.fd <- None

let cancel_retry conn =
  match conn.retry with
  | Some timer ->
    Event_loop.cancel timer;
    conn.retry <- None
  | None -> ()

let hello_bytes t = encode_hello (Hashtbl.fold (fun a _ acc -> a :: acc) t.handlers [])

(* {2 Write queue} *)

(* A drained write buffer up to this size is kept for the next frames. *)
let retain = 64 * 1024

(* Room for [n] more bytes at the tail: slide the pending bytes to the
   front if that makes room, grow the buffer otherwise. *)
let reserve conn n =
  if conn.ofill + n > Bytes.length conn.obuf then begin
    let pending = conn.ofill - conn.ooff in
    let dst =
      if pending + n <= Bytes.length conn.obuf then conn.obuf
      else Bytes.create (max (pending + n) (max 4096 (2 * Bytes.length conn.obuf)))
    in
    Bytes.blit conn.obuf conn.ooff dst 0 pending;
    conn.obuf <- dst;
    conn.ooff <- 0;
    conn.ofill <- pending
  end

let pushed conn len =
  conn.ofill <- conn.ofill + len;
  Queue.push len conn.lens;
  queued len

let push_frame conn frame =
  let len = String.length frame in
  reserve conn len;
  Bytes.blit_string frame 0 conn.obuf conn.ofill len;
  pushed conn len

(* Lay the message frame down in place: the body is copied once, from the
   encoder's string into the write buffer. *)
let push_msg conn ~src ~dst body =
  let blen = String.length body in
  let len = msg_overhead + blen in
  reserve conn len;
  let b = conn.obuf and o = conn.ofill in
  Bytes.set_int32_be b o (Int32.of_int (len - Frame.header));
  Bytes.set_uint8 b (o + 4) msg_tag;
  Bytes.set_int64_be b (o + 5) (Int64.of_int src);
  Bytes.set_int64_be b (o + 13) (Int64.of_int dst);
  Bytes.set_int32_be b (o + 21) (Int32.of_int blen);
  Bytes.blit_string body 0 b (o + msg_overhead) blen;
  pushed conn len

(* Drop the first [n] pending bytes (written, or the rest of a torn head
   frame), retiring every frame they finish. *)
let retire conn n =
  conn.ooff <- conn.ooff + n;
  let rec advance n =
    if n > 0 then begin
      let len = Queue.peek conn.lens in
      let rest = len - conn.head_off in
      if n >= rest then begin
        ignore (Queue.pop conn.lens);
        queued (-len);
        conn.head_off <- 0;
        advance (n - rest)
      end
      else conn.head_off <- conn.head_off + n
    end
  in
  advance n;
  if conn.ooff = conn.ofill then begin
    conn.ooff <- 0;
    conn.ofill <- 0;
    if Bytes.length conn.obuf > retain then conn.obuf <- Bytes.empty
  end

(* Put [frame] ahead of everything queued; the head frame is whole here,
   since a torn one was retired when the connection went down. *)
let push_front conn frame =
  let rest = Bytes.sub conn.obuf conn.ooff (conn.ofill - conn.ooff) in
  let lens = conn.lens in
  conn.ooff <- 0;
  conn.ofill <- 0;
  conn.lens <- Queue.create ();
  push_frame conn frame;
  reserve conn (Bytes.length rest);
  Bytes.blit rest 0 conn.obuf conn.ofill (Bytes.length rest);
  conn.ofill <- conn.ofill + Bytes.length rest;
  Queue.transfer lens conn.lens

(* The whole backlog goes out in one write, accounted frame by frame; a
   short write keeps the rest queued and resumes on writability. *)
let rec flush t conn =
  match conn.fd with
  | None -> ()
  | Some fd when conn.ooff = conn.ofill -> Event_loop.unwatch_write t.loop fd
  | Some fd -> (
      match Unix.write fd conn.obuf conn.ooff (conn.ofill - conn.ooff) with
      | n ->
        conn.last_activity <- Event_loop.now t.loop;
        Kronos_metrics.Counter.add M.bytes_out n;
        retire conn n;
        if conn.ooff = conn.ofill then Event_loop.unwatch_write t.loop fd
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
        ->
        ()
      | exception Unix.Unix_error (err, _, _) ->
        Log.debug (fun m -> m "write failed: %s" (Unix.error_message err));
        conn_down t conn)

(* Tear a connection down.  Outbound (dialed) connections schedule a
   reconnect with exponential backoff when [redial]; inbound ones are
   dropped entirely.  A half-written head frame is discarded: its prefix
   died with the receiver's per-connection reassembler.  The whole frames
   queued behind it stay queued for the next connection. *)
and conn_down ?(redial = true) t conn =
  close_fd t conn;
  set_state conn `Down;
  conn.reasm <- Frame.Reassembler.create ~max_frame:t.cfg.max_frame ();
  if conn.head_off > 0 then retire conn (Queue.peek conn.lens - conn.head_off);
  match conn.ep with
  | Some _ when redial && not t.closed ->
    if conn.retry = None then begin
      let delay = conn.backoff in
      conn.backoff <- min t.cfg.backoff_max (conn.backoff *. 2.0);
      conn.retry <-
        Some
          (Event_loop.schedule t.loop ~delay (fun () ->
               conn.retry <- None;
               if conn.state = `Down && not t.closed then start_connect t conn))
    end
  | Some _ -> ()
  | None ->
    (* nothing will ever write an inbound connection's queue again *)
    retire conn (conn.ofill - conn.ooff);
    t.inbound <- List.filter (fun c -> c != conn) t.inbound

and on_readable t conn =
  match conn.fd with
  | None -> ()
  | Some fd -> (
      match Unix.read fd t.rbuf 0 (Bytes.length t.rbuf) with
      | 0 -> conn_down t conn (* EOF *)
      | n -> (
          conn.last_activity <- Event_loop.now t.loop;
          Kronos_metrics.Counter.add M.bytes_in n;
          let reasm = conn.reasm in
          match Frame.Reassembler.feed_sub reasm t.rbuf 0 n with
          | frames ->
            Kronos_metrics.Counter.add M.frames (List.length frames);
            (* Taking the connection down swaps in a fresh reassembler: the
               rest of this read belongs to a dead stream. *)
            List.iter
              (fun payload ->
                if conn.state = `Up && conn.reasm == reasm then
                  handle_frame t conn payload)
              frames
          | exception Codec.Decode_error reason ->
            Log.warn (fun m -> m "closing connection on bad frame: %s" reason);
            conn_down ~redial:false t conn)
      | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
        ->
        ()
      | exception Unix.Unix_error (err, _, _) ->
        Log.debug (fun m -> m "read failed: %s" (Unix.error_message err));
        conn_down t conn)

and handle_frame t conn payload =
  match decode_envelope payload with
  | Hello addrs -> List.iter (fun a -> Hashtbl.replace t.learned a conn) addrs
  | Msg { src; dst; body } -> (
      Hashtbl.replace t.learned src conn;
      match Hashtbl.find_opt t.handlers dst with
      | Some handler -> (
          match t.decode body with
          | msg ->
            t.delivered <- t.delivered + 1;
            Kronos_metrics.Counter.incr M.delivered;
            handler ~src msg
          | exception Codec.Decode_error reason ->
            Log.warn (fun m -> m "undecodable message for %d: %s" dst reason);
            drop t)
      | None -> drop t)
  | exception Codec.Decode_error reason ->
    Log.warn (fun m -> m "closing connection on bad envelope: %s" reason);
    conn_down ~redial:false t conn

and on_connected t conn =
  match conn.fd with
  | None -> ()
  | Some fd ->
    set_state conn `Up;
    conn.backoff <- t.cfg.backoff_min;
    conn.last_activity <- Event_loop.now t.loop;
    (* HELLO must precede any queued traffic so the receiver can route
       replies before it processes the first request *)
    push_front conn (hello_bytes t);
    Event_loop.watch_read t.loop fd (fun () -> on_readable t conn);
    (* The first write is left to the loop's write phase, like every
       other: a dial that completes at once runs inside [send], possibly
       inside a handler whose queued frames its deferred WAL commit must
       precede (Event_loop.defer). *)
    Event_loop.watch_write t.loop fd (fun () -> flush t conn)

and start_connect t conn =
  match conn.ep with
  | None -> ()
  | Some ep -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      conn.fd <- Some fd;
      set_state conn `Connecting;
      match Unix.connect fd (sockaddr_of ep) with
      | () -> on_connected t conn
      | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) ->
        Event_loop.watch_write t.loop fd (fun () ->
            Event_loop.unwatch_write t.loop fd;
            match Unix.getsockopt_error fd with
            | None ->
              t.reconnects <- t.reconnects + 1;
              Kronos_metrics.Counter.incr M.reconnects;
              on_connected t conn
            | Some err ->
              Log.debug (fun m ->
                  m "connect to %s:%d failed: %s" (fst ep) (snd ep)
                    (Unix.error_message err));
              conn_down t conn)
      | exception Unix.Unix_error (err, _, _) ->
        Log.debug (fun m ->
            m "connect to %s:%d failed: %s" (fst ep) (snd ep)
              (Unix.error_message err));
        conn_down t conn)

let conn_to t ep =
  match Hashtbl.find_opt t.conns ep with
  | Some conn -> conn
  | None ->
    let conn = new_conn t (Some ep) None in
    Hashtbl.replace t.conns ep conn;
    start_connect t conn;
    conn

(* Backpressure: a frame that would take the queue past [max_buffer] is
   shed, and retransmission recovers. *)
let fits t conn len = out_bytes conn + len <= t.cfg.max_buffer || (drop t; false)

(* Get queued frames moving: watch for writability when up, dial when down. *)
let kick t conn =
  match (conn.state, conn.fd) with
  | `Up, Some fd -> Event_loop.watch_write t.loop fd (fun () -> flush t conn)
  | `Connecting, _ -> ()
  | `Down, _ -> if conn.retry = None then start_connect t conn
  | `Up, None -> ()

let route t dst =
  match Hashtbl.find_opt t.peers dst with
  | Some ep -> Some (conn_to t ep)
  | None -> (
      match Hashtbl.find_opt t.learned dst with
      | Some conn when conn.state <> `Down || conn.ep <> None -> Some conn
      | Some _ | None -> None)

let deliver_local t ~src ~dst msg =
  match Hashtbl.find_opt t.handlers dst with
  | Some handler ->
    t.delivered <- t.delivered + 1;
    Kronos_metrics.Counter.incr M.delivered;
    handler ~src msg
  | None -> drop t

let send t ~src ~dst msg =
  t.sent <- t.sent + 1;
  Kronos_metrics.Counter.incr M.sent;
  if t.closed then drop t
  else if Hashtbl.mem t.handlers dst then
    (* local short-circuit, deferred through the loop so a handler never
       runs inside the sender's stack frame *)
    ignore
      (Event_loop.schedule t.loop ~delay:0.0 (fun () -> deliver_local t ~src ~dst msg))
  else
    match route t dst with
    | Some conn ->
      let body = t.encode msg in
      if fits t conn (msg_overhead + String.length body) then begin
        push_msg conn ~src ~dst body;
        kick t conn
      end
    | None -> drop t

(* {1 Listening} *)

let on_acceptable t listener =
  let rec accept_loop () =
    match Unix.accept listener with
    | fd, _peer ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      let conn = new_conn t None (Some fd) in
      set_state conn `Up;
      t.inbound <- conn :: t.inbound;
      (* announce our addresses on the accepted side too, so both ends
         learn return routes regardless of who dialed *)
      push_frame conn (hello_bytes t);
      kick t conn;
      Event_loop.watch_read t.loop fd (fun () -> on_readable t conn);
      accept_loop ()
    | exception Unix.Unix_error ((Unix.EWOULDBLOCK | Unix.EAGAIN | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error (err, _, _) ->
      Log.warn (fun m -> m "accept failed: %s" (Unix.error_message err))
  in
  accept_loop ()

let listen t ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.set_nonblock fd;
  Unix.bind fd (sockaddr_of (host, port));
  Unix.listen fd 128;
  t.listeners <- fd :: t.listeners;
  Event_loop.watch_read t.loop fd (fun () -> on_acceptable t fd);
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, actual) -> actual
  | Unix.ADDR_UNIX _ -> port

let add_peer t addr ~host ~port = Hashtbl.replace t.peers addr (host, port)

let connect_peers t =
  Hashtbl.iter (fun _ ep -> ignore (conn_to t ep)) t.peers

(* {1 Housekeeping: idle connections} *)

let sweep_idle t =
  if t.cfg.idle_timeout > 0.0 then begin
    let cutoff = Event_loop.now t.loop -. t.cfg.idle_timeout in
    let idle conn =
      conn.state = `Up && out_bytes conn = 0 && conn.last_activity < cutoff
    in
    Hashtbl.iter
      (fun _ conn -> if idle conn then conn_down ~redial:false t conn)
      t.conns;
    List.iter (fun conn -> if idle conn then conn_down ~redial:false t conn) t.inbound
  end

(* {1 Lifecycle} *)

let create ~loop ~encode ~decode ?(config = default_config) () =
  (* a peer resetting a connection mid-write must not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let t =
    {
      loop;
      encode;
      decode;
      cfg = config;
      handlers = Hashtbl.create 16;
      peers = Hashtbl.create 16;
      conns = Hashtbl.create 16;
      inbound = [];
      learned = Hashtbl.create 16;
      listeners = [];
      rand = Random.State.make [| 0x6b726f6e; 0x6f737463 |];
      rbuf = Bytes.create 65536;
      housekeeper = None;
      closed = false;
      sent = 0;
      delivered = 0;
      dropped = 0;
      reconnects = 0;
    }
  in
  if config.idle_timeout > 0.0 then
    t.housekeeper <-
      Some
        (Event_loop.every loop ~period:(config.idle_timeout /. 2.0) (fun () ->
             sweep_idle t));
  t

(* Give each connection a short synchronous chance to drain its write
   queue before closing: graceful shutdown flushes acknowledged work
   without blocking the daemon for more than [grace] seconds in total. *)
let drain ~grace t conn =
  match conn.fd with
  | None -> ()
  | Some fd ->
    let deadline = Unix.gettimeofday () +. grace in
    (try
       while
         out_bytes conn > 0 && Unix.gettimeofday () < deadline
       do
         match Unix.select [] [ fd ] [] (deadline -. Unix.gettimeofday ()) with
         | _, [ _ ], _ -> flush t conn
         | _ -> raise Exit
       done
     with _ -> ())

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    List.iter
      (fun fd ->
        Event_loop.forget t.loop fd;
        try Unix.close fd with Unix.Unix_error _ -> ())
      t.listeners;
    t.listeners <- [];
    (match t.housekeeper with
     | Some timer ->
       Event_loop.cancel timer;
       t.housekeeper <- None
     | None -> ());
    let close_conn conn =
      cancel_retry conn;
      if conn.state = `Up then drain ~grace:0.2 t conn;
      close_fd t conn;
      set_state conn `Down;
      retire conn (conn.ofill - conn.ooff)
    in
    Hashtbl.iter (fun _ conn -> close_conn conn) t.conns;
    List.iter close_conn t.inbound;
    Hashtbl.reset t.conns;
    Hashtbl.reset t.learned;
    t.inbound <- []
  end

let transport t =
  {
    Transport.send = (fun ~src ~dst m -> send t ~src ~dst m);
    register = (fun a h -> Hashtbl.replace t.handlers a h);
    unregister = (fun a -> Hashtbl.remove t.handlers a);
    is_registered = (fun a -> Hashtbl.mem t.handlers a);
    now = (fun () -> Event_loop.now t.loop);
    schedule =
      (fun ~delay f ->
        let timer = Event_loop.schedule t.loop ~delay f in
        Transport.make_timer (fun () -> Event_loop.cancel timer));
    every =
      (fun ~period f ->
        let timer = Event_loop.every t.loop ~period f in
        Transport.make_timer (fun () -> Event_loop.cancel timer));
    random_int = (fun n -> Random.State.int t.rand n);
    defer = Event_loop.defer t.loop;
    sim = None;
  }
