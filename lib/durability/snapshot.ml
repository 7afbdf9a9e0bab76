open Kronos
module Codec = Kronos_wire.Codec

(* The one snapshot format this build reads and writes (format version 5).
   After the header, the body carries, in order: the sequence number; the
   slot table (high-water mark, refcounts biased by one so free slots' -1
   stays unsigned, generations, adjacency in insertion order, free stack);
   the traversal counters; the topological-rank index (per-slot ranks and
   the rank allocator, as i64 because sparse ranks can outgrow u32); the
   engine counters; the commitment-chain links (DESIGN.md §13), absent when
   the engine runs without digests; the graph mutation version (the view
   epoch, DESIGN.md §14); and the chain-decomposition assignment
   (DESIGN.md §15: per-slot chain id biased by one and position, per-chain
   length, free-chain stack).  The rank, link and chain sections each
   open with a bool presence flag; the rank and chain flags are always
   true.  Labels are not persisted — exact labels are a pure function of
   adjacency + chains and are recomputed on restore.

   A checksum-valid file under any other version number — a retired format
   or one from a newer build — raises [Unsupported_version] rather than
   being skipped like a corrupt file: falling back past it would silently
   restore an older state (or an empty engine) over a log that no longer
   holds the history in between. *)
let version = 5

exception Unsupported_version of { file : string; version : int }

let magic = "KSNP"

let header_bytes = 10 (* magic + u16 version + u32 crc *)

let put_int_array e a =
  Codec.put_u32 e (Array.length a);
  Array.iter (fun x -> Codec.put_u32 e x) a

let get_int_array d = Array.of_list (Codec.get_list d Codec.get_u32)

let encode ~seq (s : Engine.snapshot) =
  let e = Codec.encoder () in
  Codec.put_i64 e (Int64.of_int seq);
  let g = s.Engine.snap_graph in
  Codec.put_u32 e g.Graph.snap_next_slot;
  Codec.put_u32 e (Array.length g.Graph.snap_refcount);
  Array.iter (fun rc -> Codec.put_u32 e (rc + 1)) g.Graph.snap_refcount;
  put_int_array e g.Graph.snap_gen;
  Codec.put_u32 e (Array.length g.Graph.snap_succ);
  Array.iter (put_int_array e) g.Graph.snap_succ;
  put_int_array e g.Graph.snap_free;
  Codec.put_i64 e (Int64.of_int g.Graph.snap_traversals);
  Codec.put_i64 e (Int64.of_int g.Graph.snap_visited_total);
  Codec.put_bool e true;
  Codec.put_u32 e (Array.length g.Graph.snap_rank);
  Array.iter (fun r -> Codec.put_i64 e (Int64.of_int r)) g.Graph.snap_rank;
  Codec.put_i64 e (Int64.of_int g.Graph.snap_next_rank);
  Codec.put_i64 e (Int64.of_int s.Engine.snap_creates);
  Codec.put_i64 e (Int64.of_int s.Engine.snap_queries);
  Codec.put_i64 e (Int64.of_int s.Engine.snap_assigns);
  Codec.put_i64 e (Int64.of_int s.Engine.snap_aborted_batches);
  Codec.put_i64 e (Int64.of_int s.Engine.snap_reversals);
  Codec.put_i64 e (Int64.of_int s.Engine.snap_collected);
  (match g.Graph.snap_links with
   | Some links ->
     Codec.put_bool e true;
     Codec.put_u32 e (Array.length links);
     Array.iter
       (fun ls ->
         Codec.put_u32 e (Array.length ls);
         Array.iter
           (fun (pred, head, pos) ->
             Codec.put_i64 e pred;
             Codec.put_string e head;
             Codec.put_i64 e (Int64.of_int pos))
           ls)
       links
   | None -> Codec.put_bool e false);
  Codec.put_i64 e (Int64.of_int g.Graph.snap_version);
  let cs = g.Graph.snap_chains in
  Codec.put_bool e true;
  Codec.put_u32 e (Array.length cs.Graph.cs_chain_of);
  Array.iter (fun c -> Codec.put_u32 e (c + 1)) cs.Graph.cs_chain_of;
  Array.iter (fun p -> Codec.put_i64 e (Int64.of_int p)) cs.Graph.cs_chain_pos;
  Codec.put_u32 e (Array.length cs.Graph.cs_chain_len);
  Array.iter (fun l -> Codec.put_i64 e (Int64.of_int l)) cs.Graph.cs_chain_len;
  put_int_array e cs.Graph.cs_free_chains;
  let body = Codec.to_string e in
  let b = Buffer.create (String.length body + header_bytes) in
  Buffer.add_string b magic;
  Buffer.add_uint16_be b version;
  Buffer.add_int32_be b (Crc32.string body);
  Buffer.add_string b body;
  Buffer.contents b

(* Header check: magic, then body checksum, then version — so garbage and
   torn files stay [Decode_error]s that readers fall back past, and only an
   intact file under another format number is [Unsupported_version].  The
   body is checksummed where it lies: validating copies nothing. *)
let validate ~file data =
  if String.length data < header_bytes then
    raise (Codec.Decode_error "snapshot: truncated header");
  if not (String.starts_with ~prefix:magic data) then
    raise (Codec.Decode_error "snapshot: bad magic");
  let crc = String.get_int32_be data 6 in
  if Crc32.string ~off:header_bytes data <> crc then
    raise (Codec.Decode_error "snapshot: checksum mismatch");
  let v = String.get_uint16_be data 4 in
  if v <> version then raise (Unsupported_version { file; version = v })

let get_int64 d = Int64.to_int (Codec.get_i64 d)

(* The rank and chain sections are always present in this format; a false
   flag is a malformed body. *)
let expect_section d what =
  if not (Codec.get_bool d) then
    raise (Codec.Decode_error ("snapshot: missing " ^ what ^ " section"))

let decode_file ~file data =
  validate ~file data;
  let d = Codec.decoder ~off:header_bytes data in
  let seq = get_int64 d in
  let snap_next_slot = Codec.get_u32 d in
  let snap_refcount =
    Array.map (fun x -> x - 1) (get_int_array d)
  in
  let snap_gen = get_int_array d in
  let n = Codec.get_u32 d in
  if n > String.length data then
    raise (Codec.Decode_error "snapshot: absurd adjacency count");
  let snap_succ = Array.init n (fun _ -> get_int_array d) in
  let snap_free = get_int_array d in
  let snap_traversals = get_int64 d in
  let snap_visited_total = get_int64 d in
  expect_section d "rank";
  let len = Codec.get_u32 d in
  if len > String.length data then
    raise (Codec.Decode_error "snapshot: absurd rank count");
  let snap_rank = Array.init len (fun _ -> get_int64 d) in
  let snap_next_rank = get_int64 d in
  let snap_creates = get_int64 d in
  let snap_queries = get_int64 d in
  let snap_assigns = get_int64 d in
  let snap_aborted_batches = get_int64 d in
  let snap_reversals = get_int64 d in
  let snap_collected = get_int64 d in
  let snap_links =
    if not (Codec.get_bool d) then None
    else begin
      let len = Codec.get_u32 d in
      if len > String.length data then
        raise (Codec.Decode_error "snapshot: absurd link table count");
      Some
        (Array.init len (fun _ ->
             let m = Codec.get_u32 d in
             if m > String.length data then
               raise (Codec.Decode_error "snapshot: absurd link count");
             Array.init m (fun _ ->
                 let pred = Codec.get_i64 d in
                 let head = Codec.get_string d in
                 let pos = get_int64 d in
                 (pred, head, pos))))
    end
  in
  let snap_version = get_int64 d in
  expect_section d "chain";
  let nslots = Codec.get_u32 d in
  if nslots > String.length data then
    raise (Codec.Decode_error "snapshot: absurd chain table count");
  let cs_chain_of = Array.init nslots (fun _ -> Codec.get_u32 d - 1) in
  let cs_chain_pos = Array.init nslots (fun _ -> get_int64 d) in
  let nchains = Codec.get_u32 d in
  if nchains > String.length data then
    raise (Codec.Decode_error "snapshot: absurd chain count");
  let cs_chain_len = Array.init nchains (fun _ -> get_int64 d) in
  let cs_free_chains = get_int_array d in
  let snap_chains =
    { Graph.cs_chain_of; cs_chain_pos; cs_chain_len; cs_free_chains }
  in
  Codec.expect_end d;
  ( seq,
    {
      Engine.snap_graph =
        {
          Graph.snap_next_slot;
          snap_refcount;
          snap_gen;
          snap_succ;
          snap_free;
          snap_rank;
          snap_next_rank;
          snap_traversals;
          snap_visited_total;
          snap_links;
          snap_version;
          snap_chains;
        };
      snap_creates;
      snap_queries;
      snap_assigns;
      snap_aborted_batches;
      snap_reversals;
      snap_collected;
    } )

let decode data = decode_file ~file:"(in-memory snapshot)" data

let filename ~seq = Printf.sprintf "snap-%010d.snap" seq

let parse_filename name =
  if String.length name = 20
     && String.sub name 0 5 = "snap-"
     && Filename.check_suffix name ".snap"
  then int_of_string_opt (String.sub name 5 10)
  else None

let m_writes =
  Kronos_metrics.counter (Kronos_metrics.scope "snapshot") "writes_total"

let m_bytes =
  Kronos_metrics.counter (Kronos_metrics.scope "snapshot") "bytes_written_total"

let write_bytes storage ~seq data =
  Kronos_metrics.Counter.incr m_writes;
  Kronos_metrics.Counter.add m_bytes (String.length data);
  let final = filename ~seq in
  let tmp = Printf.sprintf "snap-%010d.tmp" seq in
  storage.Storage.remove_file tmp;
  let w = storage.Storage.open_append tmp in
  w.Storage.append data;
  w.Storage.sync ();
  w.Storage.close ();
  storage.Storage.rename_file tmp final

let write storage ~seq engine =
  write_bytes storage ~seq (encode ~seq (Engine.to_snapshot engine))

let list_snapshots storage =
  storage.Storage.list_files ()
  |> List.filter_map (fun n -> Option.map (fun s -> (s, n)) (parse_filename n))
  |> List.sort (fun a b -> compare b a) (* newest first *)

(* Delta files ([delta-<seq>.delta]) were the incremental snapshot kind
   of earlier builds, chained onto a full file.  Their WAL was truncated
   past the full below them, so recovering from that full would silently
   drop every command the deltas covered: a directory holding one stops
   recovery like a retired full format.  The version reported is the
   delta header's (magic [KSND], then a u16), or 0 for a torn file. *)
let refuse_deltas storage =
  List.iter
    (fun file ->
      if String.starts_with ~prefix:"delta-" file
         && Filename.check_suffix file ".delta"
      then
        let version =
          match storage.Storage.read_file file with
          | Some data
            when String.starts_with ~prefix:"KSND" data && String.length data >= 6
            -> String.get_uint16_be data 4
          | Some _ | None -> 0
        in
        raise (Unsupported_version { file; version }))
    (storage.Storage.list_files ())

let load_chain storage =
  refuse_deltas storage;
  List.find_map
    (fun (seq, file) ->
      match storage.Storage.read_file file with
      | None -> None
      | Some data -> (
          match decode_file ~file data with
          | s, snap when s = seq -> (
              match Engine.of_snapshot snap with
              | engine -> Some (seq, engine)
              | exception Invalid_argument _ -> None)
          | _ -> None
          | exception (Codec.Decode_error _ | Invalid_argument _) -> None))
    (list_snapshots storage)

(* A full file whose header and checksum hold; [Unsupported_version]
   propagates. *)
let is_valid ~file data =
  match validate ~file data with
  | () -> true
  | exception Codec.Decode_error _ -> false

let load_chain_bytes storage =
  List.find_map
    (fun (seq, file) ->
      match storage.Storage.read_file file with
      | Some data when is_valid ~file data -> Some (seq, data)
      | Some _ | None -> None)
    (list_snapshots storage)

(* ------------------------------------------------------------------ *)
(* Compaction manifest.                                                *)
(*                                                                     *)
(* A small text file naming the current recovery head and the files    *)
(* compaction decided to keep.  It is a {e hint and audit record}, not *)
(* an index: recovery always rescans the directory, so a torn or stale *)
(* manifest can never lose state — the scan-based resolver is the      *)
(* source of truth and the manifest lets operators (and the nemesis    *)
(* checker) verify compaction's crash ordering after the fact.         *)
(* ------------------------------------------------------------------ *)

let manifest_name = "MANIFEST"

let write_manifest storage ~head kept =
  let b = Buffer.create 256 in
  Buffer.add_string b "kronos-manifest 1\n";
  Buffer.add_string b (Printf.sprintf "head %d\n" head);
  List.iter (fun n -> Buffer.add_string b (n ^ "\n")) kept;
  let tmp = manifest_name ^ ".tmp" in
  storage.Storage.remove_file tmp;
  let w = storage.Storage.open_append tmp in
  w.Storage.append (Buffer.contents b);
  w.Storage.sync ();
  w.Storage.close ();
  storage.Storage.rename_file tmp manifest_name

let read_manifest storage =
  match storage.Storage.read_file manifest_name with
  | None -> None
  | Some data -> (
      match String.split_on_char '\n' data with
      | header :: rest when header = "kronos-manifest 1" -> (
          match rest with
          | head_line :: files
            when String.length head_line > 5
                 && String.sub head_line 0 5 = "head " -> (
              match
                int_of_string_opt
                  (String.sub head_line 5 (String.length head_line - 5))
              with
              | Some head ->
                Some (head, List.filter (fun l -> l <> "") files)
              | None -> None)
          | _ -> None)
      | _ -> None)

let m_retired =
  Kronos_metrics.counter
    (Kronos_metrics.scope "durability")
    "snapshots_retired_total"

(* Retire snapshot files made redundant by newer durable state: valid
   full files beyond the newest [keep], corrupt full files (a file under
   its final name never becomes valid later: writes go tmp -> sync ->
   rename), and stray temporaries.  Crash ordering is the caller's: the
   covering snapshot is written and synced {e before} compact unlinks
   anything, and unlinking is idempotent — a crash mid-compact leaves
   extra files that the next compact retires and recovery happily
   ignores.  Returns the number of files removed. *)
let compact storage ~keep =
  let keep = max keep 1 in
  let removed = ref 0 in
  let remove name =
    storage.Storage.remove_file name;
    incr removed;
    Kronos_metrics.Counter.incr m_retired
  in
  let fulls, corrupt =
    List.partition
      (fun (_, file) ->
        match storage.Storage.read_file file with
        | None -> false
        | Some data -> is_valid ~file data)
      (list_snapshots storage)
  in
  List.iteri (fun i (_, name) -> if i >= keep then remove name) fulls;
  List.iter (fun (_, name) -> remove name) corrupt;
  storage.Storage.list_files ()
  |> List.iter (fun n ->
         if String.starts_with ~prefix:"snap-" n && Filename.check_suffix n ".tmp"
         then remove n);
  (* The manifest audits the newest valid full — the head recovery would
     restore — not just the newest file name: a torn newest file must not
     be recorded as the head it can never be. *)
  (match fulls with
   | (head, _) :: _ ->
     let kept =
       List.filter
         (fun n -> parse_filename n <> None)
         (storage.Storage.list_files ())
     in
     write_manifest storage ~head kept
   | [] -> storage.Storage.remove_file manifest_name);
  !removed
