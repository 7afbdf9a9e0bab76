open Kronos
open Kronos_wire

let test_codec_roundtrip () =
  let b = Codec.encoder () in
  Codec.put_u8 b 200;
  Codec.put_u16 b 60000;
  Codec.put_u32 b 123_456_789;
  Codec.put_i64 b (-42L);
  Codec.put_bool b true;
  Codec.put_float b 3.5;
  Codec.put_string b "hello";
  Codec.put_list b Codec.put_u8 [ 1; 2; 3 ];
  let d = Codec.decoder (Codec.to_string b) in
  Alcotest.(check int) "u8" 200 (Codec.get_u8 d);
  Alcotest.(check int) "u16" 60000 (Codec.get_u16 d);
  Alcotest.(check int) "u32" 123_456_789 (Codec.get_u32 d);
  Alcotest.(check int64) "i64" (-42L) (Codec.get_i64 d);
  Alcotest.(check bool) "bool" true (Codec.get_bool d);
  Alcotest.(check (float 0.0)) "float" 3.5 (Codec.get_float d);
  Alcotest.(check string) "string" "hello" (Codec.get_string d);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.get_list d Codec.get_u8);
  Alcotest.(check bool) "end" true (Codec.at_end d);
  Codec.expect_end d

let test_codec_truncated () =
  let raises f =
    match f () with
    | exception Codec.Decode_error _ -> ()
    | _ -> Alcotest.fail "expected Decode_error"
  in
  raises (fun () -> Codec.get_u32 (Codec.decoder "ab"));
  raises (fun () -> Codec.get_i64 (Codec.decoder "1234567"));
  raises (fun () -> Codec.get_string (Codec.decoder "\x00\x00\x00\x05ab"));
  raises (fun () -> Codec.get_bool (Codec.decoder "\x07"));
  raises (fun () -> Codec.expect_end (Codec.decoder "x"))

let sample_requests =
  let e n = Event_id.make ~slot:n ~gen:(n mod 3) in
  [
    Message.Create_event;
    Message.Acquire_ref (e 7);
    Message.Release_ref (e 0);
    Message.Query_order { min_epoch = 0L; pairs = [] };
    Message.Query_order { min_epoch = 42L; pairs = [ (e 1, e 2); (e 3, e 3) ] };
    Message.Assign_order
      [ Order.must_before (e 1) (e 2); Order.prefer_after (e 2) (e 3) ];
    Message.Query_proof (e 4, e 5);
  ]

let sample_responses =
  let e n = Event_id.make ~slot:n ~gen:0 in
  [
    Message.Event_created (e 9);
    Message.Ref_acquired;
    Message.Ref_released 17;
    Message.Orders
      { epoch = 7L; rels = [ Order.Before; Order.After; Order.Concurrent; Order.Same ] };
    Message.Outcomes
      { epoch = Int64.max_int; outs = [ Order.Applied; Order.Already; Order.Reversed ] };
    Message.Proof_is { relation = Order.Concurrent; cert = None };
    Message.Rejected (Order.Must_violated 3);
    Message.Rejected (Order.Must_self 0);
    Message.Rejected (Order.Unknown_event (e 5));
  ]

let test_request_roundtrip () =
  List.iter
    (fun r ->
      let r' = Message.decode_request (Message.encode_request r) in
      if not (Message.request_equal r r') then
        Alcotest.failf "request mismatch: %a" Message.pp_request r)
    sample_requests

let test_response_roundtrip () =
  List.iter
    (fun r ->
      let r' = Message.decode_response (Message.encode_response r) in
      if not (Message.response_equal r r') then
        Alcotest.failf "response mismatch: %a" Message.pp_response r)
    sample_responses

let test_bad_tags () =
  let raises s f =
    match f () with
    | exception Codec.Decode_error _ -> ()
    | _ -> Alcotest.failf "expected Decode_error for %s" s
  in
  raises "request" (fun () -> Message.decode_request "\x09");
  raises "response" (fun () -> Message.decode_response "\x09");
  raises "trailing" (fun () ->
      Message.decode_request (Message.encode_request Message.Create_event ^ "x"))

(* A request in the layout of the retired tag 5, the guarded assign of
   the removed federation layer: a list of (event, event, relation)
   guards, then a list of specs. *)
let retired_guarded_assign =
  let e n = Event_id.to_int64 (Event_id.make ~slot:n ~gen:0) in
  let b = Codec.encoder () in
  Codec.put_u8 b 5;
  Codec.put_list b
    (fun b (e1, e2, rel) ->
      Codec.put_i64 b e1;
      Codec.put_i64 b e2;
      Codec.put_u8 b rel)
    [ (e 1, e 2, 2) ];
  Codec.put_list b
    (fun b (left, right) ->
      Codec.put_i64 b left;
      Codec.put_u8 b 0;
      Codec.put_u8 b 0;
      Codec.put_i64 b right)
    [ (e 2, e 3) ];
  Codec.to_string b

(* A [Rejected] reply (response tag 5, still live) carrying the retired
   error tag 3, the guard failure, at guard index 0. *)
let retired_guard_failed =
  let b = Codec.encoder () in
  Codec.put_u8 b 5;
  Codec.put_u8 b 3;
  Codec.put_u32 b 0;
  Codec.to_string b

(* Tags 3 and 4 carried the unstamped query and assign and their replies;
   they are retired in both directions, empty body or not.  Request tag 5
   and error tag 3 are retired too, but response tag 5 is [Rejected]. *)
let test_retired_tags () =
  let request body =
    match Message.decode_request body with
    | exception Codec.Decode_error _ -> ()
    | r -> Alcotest.failf "request %S decoded as %a" body Message.pp_request r
  in
  let response body =
    match Message.decode_response body with
    | exception Codec.Decode_error _ -> ()
    | r -> Alcotest.failf "response %S decoded as %a" body Message.pp_response r
  in
  List.iter
    (fun body ->
      request body;
      response body)
    [ "\x03"; "\x04"; "\x03\x00\x00\x00\x00"; "\x04\x00\x00\x00\x00" ];
  request retired_guarded_assign;
  response retired_guard_failed

let test_retired_tag_rejected_by_server () =
  let malformed =
    Kronos_metrics.counter (Kronos_metrics.scope "server") "malformed_requests_total"
  in
  let was_enabled = Kronos_metrics.enabled () in
  Kronos_metrics.set_enabled true;
  let engine = Engine.create () in
  let applied =
    List.map
      (fun body ->
        let before = Kronos_metrics.Counter.value malformed in
        let resp = Kronos_service.Server.apply engine body in
        (resp, Kronos_metrics.Counter.value malformed - before))
      [ "\x03\x00\x00\x00\x00"; retired_guarded_assign ]
  in
  Kronos_metrics.set_enabled was_enabled;
  List.iter
    (fun (resp, counted) ->
      (match Message.decode_response resp with
       | Message.Rejected (Order.Unknown_event e) when Event_id.equal e Event_id.none -> ()
       | r -> Alcotest.failf "expected rejection, got %a" Message.pp_response r);
      Alcotest.(check int) "malformed counted" 1 counted)
    applied

let test_frame_roundtrip () =
  let r = Frame.Reassembler.create () in
  let framed = Frame.encode "abc" ^ Frame.encode "" ^ Frame.encode "defg" in
  (* feed byte by byte to exercise partial reads *)
  let out = ref [] in
  String.iter
    (fun ch ->
      out := !out @ Frame.Reassembler.feed r (String.make 1 ch))
    framed;
  Alcotest.(check (list string)) "frames" [ "abc"; ""; "defg" ] !out;
  Alcotest.(check int) "no pending" 0 (Frame.Reassembler.pending_bytes r)

let test_frame_oversized () =
  let r = Frame.Reassembler.create () in
  let b = Codec.encoder () in
  Codec.put_u32 b (Frame.max_frame + 1);
  match Frame.Reassembler.feed r (Codec.to_string b) with
  | exception Codec.Decode_error _ -> ()
  | _ -> Alcotest.fail "expected oversized frame rejection"

let gen_event =
  QCheck2.Gen.(map2 (fun s g -> Event_id.make ~slot:s ~gen:g) (int_bound 10_000) (int_bound 50))

let gen_relation =
  QCheck2.Gen.oneofl [ Order.Before; Order.After; Order.Concurrent; Order.Same ]

let prop_request_roundtrip =
  let open QCheck2 in
  let gen_dir = Gen.(map (fun b -> if b then Order.Happens_before else Order.Happens_after) bool) in
  let gen_kind = Gen.(map (fun b -> if b then Order.Must else Order.Prefer) bool) in
  let gen_specs =
    Gen.(list_size (int_bound 20)
           (map2
              (fun (e1, e2) (d, k) -> Order.constrain ~kind:k ~direction:d e1 e2)
              (pair gen_event gen_event) (pair gen_dir gen_kind)))
  in
  let gen_req =
    Gen.(frequency
           [ (1, return Message.Create_event);
             (1, map (fun e -> Message.Acquire_ref e) gen_event);
             (1, map (fun e -> Message.Release_ref e) gen_event);
             (2, map2 (fun min_epoch pairs -> Message.Query_order { min_epoch; pairs })
                ui64 (list_size (int_bound 20) (pair gen_event gen_event)));
             (2, map (fun rs -> Message.Assign_order rs) gen_specs);
             (1, map (fun p -> Message.Query_proof p) (pair gen_event gen_event));
           ])
  in
  Test.make ~name:"wire request roundtrip" ~count:300 gen_req (fun r ->
      Message.request_equal r (Message.decode_request (Message.encode_request r)))

let prop_response_roundtrip =
  let open QCheck2 in
  let gen_outcome = Gen.oneofl [ Order.Applied; Order.Already; Order.Reversed ] in
  let gen_resp =
    Gen.(frequency
           [ (1, map (fun e -> Message.Event_created e) gen_event);
             (1, return Message.Ref_acquired);
             (1, map (fun n -> Message.Ref_released n) (int_bound 1000));
             (2, map2 (fun epoch rels -> Message.Orders { epoch; rels })
                ui64 (list_size (int_bound 20) gen_relation));
             (2, map2 (fun epoch outs -> Message.Outcomes { epoch; outs })
                ui64 (list_size (int_bound 20) gen_outcome));
             (1, map (fun e -> Message.Rejected (Order.Unknown_event e)) gen_event);
           ])
  in
  Test.make ~name:"wire response roundtrip" ~count:300 gen_resp (fun r ->
      Message.response_equal r (Message.decode_response (Message.encode_response r)))

let prop_frames_any_chunking =
  let open QCheck2 in
  Test.make ~name:"frame reassembly under random chunking" ~count:200
    Gen.(pair (list_size (int_bound 8) (string_size (int_bound 50)))
           (list_size (int_bound 30) (int_range 1 7)))
    (fun (payloads, chunk_sizes) ->
      let stream = String.concat "" (List.map Frame.encode payloads) in
      let r = Frame.Reassembler.create () in
      let out = ref [] in
      let pos = ref 0 in
      let sizes = ref chunk_sizes in
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
      !out = payloads)

(* [feed_sub] against [feed] and against the ground truth, with the source
   buffer reused the way the TCP receive loop reuses its one read buffer:
   each chunk lands at some offset of [src], which is overwritten after
   every call.  A payload aliasing [src] would come out corrupted.  With a
   small [max_frame], both must reject at the call that completes the
   first oversized length prefix, having returned every frame completed
   before it. *)
let prop_feed_sub_differential =
  let open QCheck2 in
  let src_len = 1024 in
  Test.make ~name:"frame feed_sub matches feed, no aliasing" ~count:300
    Gen.(
      triple
        (list_size (int_bound 12)
           (string_size (frequency [ (8, int_bound 40); (1, int_range 200 3000) ])))
        (list_size (int_bound 40) (int_range 1 600))
        (frequency [ (3, return Frame.max_frame); (1, int_range 0 400) ]))
    (fun (payloads, chunk_sizes, limit) ->
      let stream = String.concat "" (List.map Frame.encode payloads) in
      let total = String.length stream in
      (* stream offset at which each frame ends *)
      let ends =
        List.rev
          (snd
             (List.fold_left
                (fun (at, acc) p ->
                  let e = at + Frame.header + String.length p in
                  (e, e :: acc))
                (0, []) payloads))
      in
      let bad_at =
        (* where the first oversized frame's length prefix completes *)
        let rec go at = function
          | [] -> max_int
          | p :: rest ->
            if String.length p > limit then at + Frame.header
            else go (at + Frame.header + String.length p) rest
        in
        go 0 payloads
      in
      let completed_by p = List.filter (fun e -> e <= p) ends in
      let expect_out p =
        List.filteri (fun i _ -> i < List.length (completed_by p)) payloads
      in
      let expect_pending p =
        p - List.fold_left (fun _ e -> e) 0 (completed_by p)
      in
      let by_feed = Frame.Reassembler.create ~max_frame:limit () in
      let by_sub = Frame.Reassembler.create ~max_frame:limit () in
      let src = Bytes.make src_len '\x00' in
      let out = ref [] and ok = ref true and stop = ref false in
      let pos = ref 0 and sizes = ref chunk_sizes in
      while !ok && (not !stop) && !pos < total do
        let n =
          match !sizes with
          | [] -> min src_len (total - !pos)
          | s :: rest ->
            sizes := rest;
            min s (total - !pos)
        in
        let off = !pos * 7 mod (src_len - n + 1) in
        Bytes.blit_string stream !pos src off n;
        let run f = try Ok (f ()) with Codec.Decode_error _ -> Error () in
        let r1 = run (fun () -> Frame.Reassembler.feed by_feed (String.sub stream !pos n)) in
        let r2 = run (fun () -> Frame.Reassembler.feed_sub by_sub src off n) in
        Bytes.fill src 0 src_len '\xa5';
        (match (r1, r2) with
         | Ok a, Ok b ->
           pos := !pos + n;
           out := !out @ b;
           ok :=
             a = b && !pos < bad_at
             && Frame.Reassembler.pending_bytes by_sub = expect_pending !pos
             && Frame.Reassembler.pending_bytes by_feed = expect_pending !pos
         | Error (), Error () ->
           stop := true;
           ok := !pos < bad_at && bad_at <= !pos + n
         | Ok _, Error () | Error (), Ok _ -> ok := false);
        ok := !ok && !out = expect_out !pos
      done;
      !ok && (!stop || (!out = payloads && Frame.Reassembler.pending_bytes by_sub = 0)))

let suites =
  [ ( "wire",
      [
        Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
        Alcotest.test_case "codec truncated" `Quick test_codec_truncated;
        Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
        Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
        Alcotest.test_case "bad tags" `Quick test_bad_tags;
        Alcotest.test_case "retired tags" `Quick test_retired_tags;
        Alcotest.test_case "retired tag rejected by server" `Quick
          test_retired_tag_rejected_by_server;
        Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
        Alcotest.test_case "frame oversized" `Quick test_frame_oversized;
        QCheck_alcotest.to_alcotest prop_request_roundtrip;
        QCheck_alcotest.to_alcotest prop_response_roundtrip;
        QCheck_alcotest.to_alcotest prop_frames_any_chunking;
        QCheck_alcotest.to_alcotest prop_feed_sub_differential;
      ] );
  ]
