module M = struct
  let scope = Kronos_metrics.scope "wal"
  let appends = Kronos_metrics.counter scope "appends_total"
  let fsyncs = Kronos_metrics.counter scope "fsyncs_total"
  let rotations = Kronos_metrics.counter scope "segment_rotations_total"
  let bytes = Kronos_metrics.counter scope "bytes_written_total"

  let retired =
    Kronos_metrics.counter
      (Kronos_metrics.scope "durability")
      "segments_retired_total"
end

type sync_policy = Always | Every_n of int | Never

type config = { segment_bytes : int; sync : sync_policy }

let default_config = { segment_bytes = 1 lsl 20; sync = Always }

type record = { seq : int; payload : string }

(* Upper bound on one record's seq+payload portion; anything larger in a
   length field is treated as corruption rather than allocated. *)
let max_frame = 1 lsl 26

let header_bytes = 16 (* u32 length + u32 crc + i64 seq *)

type t = {
  storage : Storage.t;
  config : config;
  (* every segment, (first_seq, file name), ascending; the last entry is the
     active segment when [active] is true *)
  mutable segments : (int * string) list;
  mutable active : bool;
  mutable writer : Storage.writer option;
  mutable active_size : int;
  pending : Buffer.t;
  mutable pending_first_seq : int; (* -1 when the buffer is empty *)
  mutable pending_records : int;
  mutable last_seq : int;
  mutable unsynced_records : int;
  mutable syncs : int;
  (* cumulative framed bytes accepted by [append] (header + payload),
     including bytes still in the group-commit buffer — the snapshot
     schedule's WAL-bytes-since-snapshot trigger reads this *)
  mutable logged_bytes : int;
}

let segment_name seq = Printf.sprintf "wal-%010d.log" seq

let parse_segment_name name =
  if String.length name = 18
     && String.sub name 0 4 = "wal-"
     && Filename.check_suffix name ".log"
  then int_of_string_opt (String.sub name 4 10)
  else None

(* Scan a segment's bytes.  Returns the records of the valid prefix and the
   offset where the first torn/corrupt record starts ([None] = clean). *)
let scan_segment data =
  let len = String.length data in
  let records = ref [] in
  let rec loop off =
    if off = len then None
    else if len - off < header_bytes then Some off
    else begin
      let flen = Int32.to_int (String.get_int32_be data off) in
      if flen < 8 || flen > max_frame || len - off - 8 < flen then Some off
      else begin
        let crc = String.get_int32_be data (off + 4) in
        if Crc32.string ~off:(off + 8) ~len:flen data <> crc then Some off
        else begin
          let seq = Int64.to_int (String.get_int64_be data (off + 8)) in
          let payload = String.sub data (off + 16) (flen - 8) in
          records := { seq; payload } :: !records;
          loop (off + 8 + flen)
        end
      end
    end
  in
  let torn = loop 0 in
  (List.rev !records, torn)

let encode_record buf ~seq ~payload =
  let body = Buffer.create (8 + String.length payload) in
  Buffer.add_int64_be body (Int64.of_int seq);
  Buffer.add_string body payload;
  let body = Buffer.contents body in
  Buffer.add_int32_be buf (Int32.of_int (String.length body));
  Buffer.add_int32_be buf (Crc32.string body);
  Buffer.add_string buf body

let open_ ?(config = default_config) storage =
  let names =
    storage.Storage.list_files ()
    |> List.filter_map (fun n ->
           Option.map (fun seq -> (seq, n)) (parse_segment_name n))
    |> List.sort compare
  in
  (* Scan in order; at the first torn record, truncate that segment and
     discard any later segments (their records would be unreachable past the
     gap anyway). *)
  let records = ref [] in
  let segments = ref [] in
  let active_size = ref 0 in
  let torn_seen = ref false in
  List.iter
    (fun (first_seq, name) ->
      if !torn_seen then storage.Storage.remove_file name
      else begin
        let data = Option.value (storage.Storage.read_file name) ~default:"" in
        let recs, torn = scan_segment data in
        records := List.rev_append recs !records;
        (match torn with
         | Some off ->
           storage.Storage.truncate_file name off;
           active_size := off;
           torn_seen := true
         | None -> active_size := String.length data);
        segments := (first_seq, name) :: !segments
      end)
    names;
  let records = List.rev !records in
  let segments = List.rev !segments in
  let last_seq =
    List.fold_left (fun acc r -> max acc r.seq) 0 records
  in
  let t =
    {
      storage;
      config;
      segments;
      active = segments <> [] && !active_size < config.segment_bytes;
      writer = None;
      active_size = !active_size;
      pending = Buffer.create 4096;
      pending_first_seq = -1;
      pending_records = 0;
      last_seq;
      unsynced_records = 0;
      syncs = 0;
      logged_bytes = 0;
    }
  in
  (t, records)

let do_sync t =
  match t.writer with
  | Some w ->
    w.Storage.sync ();
    t.syncs <- t.syncs + 1;
    Kronos_metrics.Counter.incr M.fsyncs;
    t.unsynced_records <- 0
  | None -> ()

let rotate t =
  (match t.config.sync with
   | Always | Every_n _ -> if t.unsynced_records > 0 then do_sync t
   | Never -> ());
  (match t.writer with Some w -> w.Storage.close () | None -> ());
  Kronos_metrics.Counter.incr M.rotations;
  t.writer <- None;
  t.active <- false;
  t.active_size <- 0

let ensure_writer t =
  match t.writer with
  | Some w -> w
  | None ->
    let name =
      if t.active then snd (List.nth t.segments (List.length t.segments - 1))
      else begin
        let name = segment_name t.pending_first_seq in
        t.segments <- t.segments @ [ (t.pending_first_seq, name) ];
        t.active <- true;
        name
      end
    in
    let w = t.storage.Storage.open_append name in
    t.writer <- Some w;
    t.active_size <- w.Storage.size ();
    w

let flush t =
  if t.pending_records > 0 then begin
    let w = ensure_writer t in
    let batch = Buffer.contents t.pending in
    w.Storage.append batch;
    t.active_size <- t.active_size + String.length batch;
    Kronos_metrics.Counter.add M.bytes (String.length batch);
    let flushed = t.pending_records in
    Buffer.clear t.pending;
    t.pending_first_seq <- -1;
    t.pending_records <- 0;
    (match t.config.sync with
     | Always -> do_sync t
     | Every_n n ->
       t.unsynced_records <- t.unsynced_records + flushed;
       if t.unsynced_records >= n then do_sync t
     | Never -> ());
    if t.active_size >= t.config.segment_bytes then rotate t
  end

let append t ~seq ~payload =
  if seq <= t.last_seq then invalid_arg "Wal.append: non-increasing seq";
  if t.pending_first_seq < 0 then t.pending_first_seq <- seq;
  encode_record t.pending ~seq ~payload;
  t.pending_records <- t.pending_records + 1;
  t.logged_bytes <- t.logged_bytes + header_bytes + String.length payload;
  Kronos_metrics.Counter.incr M.appends;
  t.last_seq <- seq;
  (* bound the group-commit buffer: a huge burst still hits storage in
     reasonably sized writes *)
  if Buffer.length t.pending >= 256 * 1024 then flush t

let sync t =
  flush t;
  if t.writer = None && t.active then ignore (ensure_writer t);
  do_sync t

let read_from t ~since =
  flush t;
  if t.last_seq <= since then Some []
  else begin
    let records =
      List.concat_map
        (fun (_, name) ->
          match t.storage.Storage.read_file name with
          | None -> []
          | Some data -> fst (scan_segment data))
        t.segments
      |> List.filter (fun r -> r.seq > since)
    in
    (* the range is usable only if it is contiguous from since+1 upward *)
    let rec contiguous expect = function
      | [] -> expect > t.last_seq
      | r :: rest -> r.seq = expect && contiguous (expect + 1) rest
    in
    if contiguous (since + 1) records then Some records else None
  end

let truncate_before t ~seq =
  (* everything up to [seq] is covered by a snapshot: a range reaching
     below it is no longer in the log, even if nothing above was appended *)
  if seq > t.last_seq then t.last_seq <- seq;
  let rec drop = function
    | (_, name) :: ((next_first, _) :: _ as rest) when next_first <= seq + 1 ->
      t.storage.Storage.remove_file name;
      Kronos_metrics.Counter.incr M.retired;
      drop rest
    | segments -> segments
  in
  t.segments <- drop t.segments

let last_seq t = t.last_seq
let segment_files t = List.map snd t.segments
let sync_count t = t.syncs
let logged_bytes t = t.logged_bytes
