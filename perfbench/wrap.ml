(* Outside wrappers around the public functions each layer is called
   through, plus the probes they feed in the traced run:

   - wire: the [~encode]/[~decode] pair handed to [Tcp_transport.create];
   - transport/replication: [Transport.t.register] (every handler a
     replica, the coordinator or the client proxy installs) and
     [Transport.t.send], per runtime;
   - engine: the [server.apply_seconds{op}] sums, read around each handler;
   - durability: the [Storage.t] returned by [storage_of], split by file
     kind (WAL segment or snapshot). *)

module Chain = Kronos_replication.Chain
module Transport = Kronos_transport.Transport
module Storage = Kronos_durability.Storage

let coordinator_addr = 1000
let client_addr = 9001

(* {1 Probes} *)

let enc_bytes = ref 0
let hop = Samples.create () (* head Client_write handled -> tail Reply sent *)
let pool_wait = Samples.create () (* tail Client_read handled -> tail Reply sent *)
let fsync = Samples.create () (* WAL fsyncs *)
let repl_msgs = ref 0 (* Forward, Ack and write Replies sent *)
let tail_reads = ref 0
let wal_bytes = ref 0
let snap_bytes = ref 0
let snap_stall_max = ref 0
let hop_start : (int * int, int) Hashtbl.t = Hashtbl.create 1024
let wait_start : (int * int, int) Hashtbl.t = Hashtbl.create 1024

(* Storage reads are timed with tracing on or off: recovery is their only
   caller on the benchmark's path. *)
let read_ns = ref 0

(* Set when the client runtime receives its first chain configuration. *)
let config_seen = ref false

let reset () =
  enc_bytes := 0;
  Samples.clear hop;
  Samples.clear pool_wait;
  Samples.clear fsync;
  repl_msgs := 0;
  tail_reads := 0;
  wal_bytes := 0;
  snap_bytes := 0;
  snap_stall_max := 0;
  Hashtbl.reset hop_start;
  Hashtbl.reset wait_start

(* Loop-thread engine time: the server's own per-op apply histograms. *)
let apply_hist op =
  Kronos_metrics.histogram
    (Kronos_metrics.scope "server")
    ~labels:[ ("op", op) ]
    "apply_seconds"

let apply_hists =
  List.map apply_hist
    [ "create_event"; "acquire_ref"; "release_ref"; "query_order";
      "query_proof"; "assign_order"; "guarded_assign" ]

let engine_ns () =
  let s =
    List.fold_left (fun acc h -> acc +. Kronos_metrics.Histogram.sum h) 0. apply_hists
  in
  int_of_float (s *. 1e9)

(* {1 Wire} *)

let encode m =
  if not !Tracer.on then Kronos_replication.Chain_codec.encode m
  else
    Tracer.span ~layer:Tracer.wire "encode" (fun () ->
        let s = Kronos_replication.Chain_codec.encode m in
        enc_bytes := !enc_bytes + String.length s;
        s)

let decode s =
  if not !Tracer.on then Kronos_replication.Chain_codec.decode s
  else
    Tracer.span ~layer:Tracer.wire "decode" (fun () ->
        Kronos_replication.Chain_codec.decode s)

(* {1 Transport and replication} *)

let role_of addr =
  match addr with
  | 1 -> (Tracer.head, "head")
  | 2 -> (Tracer.mid, "mid")
  | _ -> (Tracer.tail, "tail")

let classify addr (msg : Chain.msg) =
  let none = (-1, -1) in
  if addr = coordinator_addr then (Tracer.control, "coordinator", none)
  else if addr = client_addr then
    match msg with
    | Reply { req_id; _ } -> (Tracer.client, "client.recv", (addr, req_id))
    | _ -> (Tracer.client, "client.recv", none)
  else
    let layer, role = role_of addr in
    match msg with
    | Client_write { client; req_id; _ } ->
      (layer, role ^ ".client_write", (client, req_id))
    | Forward { client; req_id; _ } -> (layer, role ^ ".forward", (client, req_id))
    | Ack _ -> (layer, role ^ ".ack", none)
    | Client_read { client; req_id; _ } ->
      (Tracer.query_pool, role ^ ".client_read", (client, req_id))
    | _ -> (Tracer.control, "replica.control", none)

let wrap_handler addr h ~src (msg : Chain.msg) =
  (match msg with Config_is _ when addr = client_addr -> config_seen := true | _ -> ());
  if not !Tracer.on then h ~src msg
  else begin
    let layer, name, link = classify addr msg in
    let t = Tracer.now_ns () in
    (match msg with
     | Client_write { client; req_id; _ } when addr = 1 ->
       if not (Hashtbl.mem hop_start (client, req_id)) then
         Hashtbl.replace hop_start (client, req_id) t
     | Client_read { client; req_id; _ } ->
       incr tail_reads;
       Hashtbl.replace wait_start (client, req_id) t
     | _ -> ());
    let e0 = engine_ns () in
    Tracer.span ~link ~layer name (fun () -> h ~src msg);
    Tracer.move ~from:layer ~to_:Tracer.engine (engine_ns () - e0)
  end

let observe_send ~dst (msg : Chain.msg) =
  match msg with
  | Reply { req_id; _ } ->
    let k = (dst, req_id) in
    let now = Tracer.now_ns () in
    (match Hashtbl.find_opt hop_start k with
     | Some t ->
       Samples.add hop (now - t);
       Hashtbl.remove hop_start k;
       incr repl_msgs
     | None -> ());
    (match Hashtbl.find_opt wait_start k with
     | Some t ->
       Samples.add pool_wait (now - t);
       Hashtbl.remove wait_start k
     | None -> ())
  | Forward _ | Ack _ -> incr repl_msgs
  | _ -> ()

let net (n : Chain.msg Transport.t) : Chain.msg Transport.t =
  {
    n with
    send =
      (fun ~src ~dst m ->
        if not !Tracer.on then n.send ~src ~dst m
        else begin
          observe_send ~dst m;
          Tracer.span ~layer:Tracer.transport "send" (fun () -> n.send ~src ~dst m)
        end);
    register = (fun a h -> n.register a (wrap_handler a h));
  }

(* {1 Durability} *)

let kind name =
  let has p = String.length name >= String.length p && String.sub name 0 (String.length p) = p in
  if has "wal-" then `Wal else if has "snap-" then `Snap else `Other

(* Time spent inside storage calls, and its value at the end of the last
   WAL fsync: what a snapshot capture spends outside storage calls between
   that fsync and its final rename is snapshot encoding. *)
let storage_ns = ref 0
let last_sync_end = ref 0
let storage_at_sync = ref 0

let op name f =
  if not !Tracer.on then f ()
  else begin
    let t0 = Tracer.now_ns () in
    let r = Tracer.span ~layer:Tracer.durability name f in
    storage_ns := !storage_ns + (Tracer.now_ns () - t0);
    r
  end

let writer k (w : Storage.writer) : Storage.writer =
  {
    Storage.append =
      (fun b ->
        if !Tracer.on then begin
          match k with
          | `Wal -> wal_bytes := !wal_bytes + String.length b
          | `Snap -> snap_bytes := !snap_bytes + String.length b
          | `Other -> ()
        end;
        op "storage.append" (fun () -> w.append b));
    sync =
      (fun () ->
        if not !Tracer.on then w.sync ()
        else begin
          let t0 = Tracer.now_ns () in
          op "storage.fsync" w.sync;
          if k = `Wal then begin
            let t1 = Tracer.now_ns () in
            Samples.add fsync (t1 - t0);
            last_sync_end := t1;
            storage_at_sync := !storage_ns
          end
        end);
    size = w.size;
    close = (fun () -> op "storage.close" w.close);
  }

let storage (s : Storage.t) : Storage.t =
  {
    Storage.list_files = (fun () -> op "storage.list" s.list_files);
    read_file =
      (fun n ->
        let t0 = Tracer.now_ns () in
        let r = op "storage.read" (fun () -> s.read_file n) in
        read_ns := !read_ns + (Tracer.now_ns () - t0);
        r);
    open_append = (fun n -> writer (kind n) (op "storage.open" (fun () -> s.open_append n)));
    remove_file = (fun n -> op "storage.remove" (fun () -> s.remove_file n));
    rename_file =
      (fun a b ->
        op "storage.rename" (fun () -> s.rename_file a b);
        if !Tracer.on && kind b = `Snap && !last_sync_end > 0 then begin
          let stall = Tracer.now_ns () - !last_sync_end in
          let encoding = stall - (!storage_ns - !storage_at_sync) in
          Tracer.move ~from:(Tracer.current_layer ()) ~to_:Tracer.durability
            (max 0 encoding);
          snap_stall_max := max !snap_stall_max stall;
          last_sync_end := 0
        end);
    truncate_file = (fun n len -> op "storage.truncate" (fun () -> s.truncate_file n len));
  }
