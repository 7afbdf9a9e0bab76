(* Verifiable causality (DESIGN.md §13): the SHA-256 primitive on both
   of its paths (SHA-NI and portable OCaml, which must agree), the
   commitment chains the graph maintains, prover/verifier roundtrips over
   random DAGs, the tamper-injection suite (flipped digests, truncated and
   spliced paths, reordered suffixes — all rejected), snapshot v3 and the
   v1/v2 upgrade differential, the verified read end-to-end on the simnet
   service and over real loopback TCP, and audit pinning against a
   byzantine replica that rewrote history. *)

open Kronos
module Certificate = Kronos_certify.Certificate
module Prover = Kronos_certify.Prover
module Verifier = Kronos_certify.Verifier
module Audit = Kronos_certify.Audit

let relation = Alcotest.testable Order.pp_relation Order.relation_equal

let ok_assign = function
  | Ok outs -> outs
  | Error e -> Alcotest.failf "assign failed: %a" Order.pp_assign_error e

let must engine a b = ignore (ok_assign (Engine.assign_order engine [ Order.must_before a b ]))

let rel engine a b =
  match Engine.query_order engine [ (a, b) ] with
  | Ok [ r ] -> r
  | Ok _ | Error _ -> Alcotest.fail "query failed"

let commit engine e =
  match Engine.commitment engine e with
  | Some c -> c
  | None -> Alcotest.fail "commitment missing"

(* ---------- sha256 ---------- *)

(* Every SHA-256 check runs on both implementations: the dispatching
   functions (the SHA-NI stub on CPUs with SHA extensions) and the
   pure-OCaml [Portable] oracle. *)
let sha_paths =
  [
    ("dispatch", Sha256.digest_string, Sha256.compress_pair);
    ("portable", Sha256.Portable.digest_string, Sha256.Portable.compress_pair);
  ]

let nist_vectors =
  [
    ("empty", "", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "two blocks",
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    (* one million 'a's, the long NIST vector *)
    ( "million a",
      String.make 1_000_000 'a',
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" );
  ]

let test_nist_vectors () =
  List.iter
    (fun (path, digest, _) ->
      List.iter
        (fun (name, input, expected) ->
          Alcotest.(check string) (path ^ " " ^ name) expected
            (Sha256.hex (digest input)))
        nist_vectors)
    sha_paths

(* Known answers for the bare compression: a message of at most 55 bytes
   pads to one block, and compressing that block from the IV is its
   SHA-256 — so the NIST digests of "" and "abc" pin [compress_pair]. *)
let test_compress_pair_known_answers () =
  let padded msg =
    let b = Bytes.make 64 '\000' in
    Bytes.blit_string msg 0 b 0 (String.length msg);
    Bytes.set b (String.length msg) '\x80';
    Bytes.set_uint16_be b 62 (String.length msg * 8);
    (Bytes.sub_string b 0 32, Bytes.sub_string b 32 32)
  in
  List.iter
    (fun (path, _, compress_pair) ->
      List.iter
        (fun (name, input, expected) ->
          if String.length input <= 55 then begin
            let a, b = padded input in
            Alcotest.(check string) (path ^ " " ^ name) expected
              (Sha256.hex (compress_pair a b))
          end)
        nist_vectors)
    sha_paths

let test_compress_pair_args () =
  let d = Sha256.digest_string "x" in
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (msg ^ ": bad argument accepted")
  in
  List.iter
    (fun (path, _, compress_pair) ->
      expect_invalid (path ^ " short left") (fun () -> compress_pair "short" d);
      expect_invalid (path ^ " short right") (fun () -> compress_pair d "short"))
    sha_paths

(* The accelerated and portable paths agree on random link folds and on
   random messages of 0-200 bytes, which cross the 55/56-byte (second
   padding block) and 64-byte (whole block) edges. *)
let prop_paths_agree =
  let open QCheck2 in
  Test.make ~name:"sha256: accelerated and portable paths agree" ~count:2000
    Gen.(
      triple (string_size (return 32)) (string_size (return 32))
        (string_size (int_range 0 200)))
    (fun (a, b, msg) ->
      Sha256.compress_pair a b = Sha256.Portable.compress_pair a b
      && Sha256.digest_string msg = Sha256.Portable.digest_string msg)

(* A host whose kernel reports the SHA extensions must run the
   accelerated path: a build that quietly fell back to the portable code
   would still pass every other check, only slower.  The choice is
   published as a read-only gauge. *)
let test_accelerated_where_available () =
  let cpu_has_sha_ni =
    match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
    | info ->
      String.split_on_char '\n' info
      |> List.exists (fun line ->
             String.starts_with ~prefix:"flags" line
             && List.mem "sha_ni" (String.split_on_char ' ' line))
    | exception Sys_error _ -> false
  in
  if cpu_has_sha_ni then
    Alcotest.(check bool) "sha_ni listed: accelerated path selected" true
      Sha256.accelerated;
  Alcotest.(check (option (float 0.))) "kronos_sha256_accelerated gauge"
    (Some (if Sha256.accelerated then 1. else 0.))
    (List.assoc_opt "kronos_sha256_accelerated" (Kronos_metrics.samples ()))

(* ---------- commitment chains ---------- *)

let test_chain_maintenance () =
  let engine = Engine.create () in
  let a = Engine.create_event engine in
  let b = Engine.create_event engine in
  Alcotest.(check string) "identity digest before any edge"
    (Chain_digest.to_hex (Chain_digest.init b))
    (Chain_digest.to_hex (commit engine b));
  let g = Engine.graph engine in
  let folds0 = Graph.digest_fold_count g in
  must engine a b;
  Alcotest.(check int) "2 compressions per edge" (folds0 + 2)
    (Graph.digest_fold_count g);
  (* the head is exactly the documented fold *)
  let expected =
    Chain_digest.fold_link (Chain_digest.init b)
      (Chain_digest.link_partner a (Chain_digest.init a))
  in
  Alcotest.(check string) "fold matches construction"
    (Chain_digest.to_hex expected)
    (Chain_digest.to_hex (commit engine b));
  (* the predecessor's commitment is untouched by its out-edge *)
  Alcotest.(check string) "out-edges don't move the predecessor"
    (Chain_digest.to_hex (Chain_digest.init a))
    (Chain_digest.to_hex (commit engine a));
  Alcotest.(check (option int)) "chain length" (Some 1) (Graph.chain_length g b);
  let c = Option.get (Graph.chain g b) in
  Alcotest.(check bool) "link names the predecessor" true
    (Event_id.equal (Graph.Chain.pred c 0) a);
  Alcotest.(check int) "link records the predecessor's position" 0
    (Graph.Chain.pred_pos c 0);
  Alcotest.(check string) "link records the predecessor's head"
    (Chain_digest.init a) (Graph.Chain.pred_head c 0);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.Chain: link index out of range") (fun () ->
      ignore (Graph.Chain.pred c 1))

let test_rollback_restores_chain () =
  let engine = Engine.create () in
  let a = Engine.create_event engine in
  let b = Engine.create_event engine in
  must engine a b;
  let before = commit engine b in
  (* an aborted batch must roll its partial folds back *)
  let c = Engine.create_event engine in
  (match
     Engine.assign_order engine
       [ Order.must_before b c; Order.must_before c a ]
   with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "cyclic batch must abort");
  Alcotest.(check string) "aborted batch leaves commitments untouched"
    (Chain_digest.to_hex before)
    (Chain_digest.to_hex (commit engine b));
  Alcotest.(check string) "partial fold into c rolled back"
    (Chain_digest.to_hex (Chain_digest.init c))
    (Chain_digest.to_hex (commit engine c))

let test_digests_off () =
  let engine =
    Engine.create ~config:{ Engine.default_config with digests = false } ()
  in
  let a = Engine.create_event engine in
  let b = Engine.create_event engine in
  must engine a b;
  Alcotest.(check bool) "no commitment" true (Engine.commitment engine b = None);
  Alcotest.(check relation) "ordering still works" Order.Before (rel engine a b);
  Alcotest.(check bool) "no proofs" true
    (Prover.prove (Engine.current_view engine) ~source:a ~target:b = None)

(* ---------- prove / verify ---------- *)

let prove_exn engine a b =
  match Prover.prove (Engine.current_view engine) ~source:a ~target:b with
  | Some c -> c
  | None -> Alcotest.fail "expected a certificate"

let verify_ok msg cert =
  match Verifier.verify cert with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" msg m

let test_direct_edge () =
  let engine = Engine.create () in
  let a = Engine.create_event engine in
  let b = Engine.create_event engine in
  must engine a b;
  let cert = prove_exn engine a b in
  verify_ok "direct edge" cert;
  Alcotest.(check int) "one edge" 1 (Certificate.path_length cert);
  (* the proof ties to the live commitments *)
  (match
     Verifier.verify_against cert ~source_commit:(commit engine a)
       ~target_commit:(commit engine b)
   with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  (match
     Verifier.verify_against cert ~source_commit:(commit engine b)
       ~target_commit:(commit engine b)
   with
   | Ok () -> Alcotest.fail "wrong pinned commitment accepted"
   | Error _ -> ())

let test_chain_path () =
  let engine = Engine.create () in
  let n = 24 in
  let ids = Array.init n (fun _ -> Engine.create_event engine) in
  for i = 0 to n - 2 do
    must engine ids.(i) ids.(i + 1)
  done;
  let cert = prove_exn engine ids.(0) ids.(n - 1) in
  verify_ok "chain" cert;
  Alcotest.(check int) "full path" (n - 1) (Certificate.path_length cert);
  (* every claimed path edge is a real committed edge *)
  List.iter
    (fun (p, e) ->
      Alcotest.(check relation) "path edge holds" Order.Before (rel engine p e))
    (Certificate.path_edges cert)

(* Only commitment-closed paths are provable: a predecessor linked into the
   path *after* the downstream fold recorded its head is out of reach.
   [x -> a] is admitted after [a -> b], so [a]'s head inside [b]'s link
   predates the [x] link — the relation holds but has no certificate. *)
let test_unprovable_is_none () =
  let engine = Engine.create () in
  let a = Engine.create_event engine in
  let b = Engine.create_event engine in
  must engine a b;
  let x = Engine.create_event engine in
  must engine x a;
  Alcotest.(check relation) "relation holds" Order.Before (rel engine x b);
  Alcotest.(check bool) "but is unprovable" true
    (Prover.prove (Engine.current_view engine) ~source:x ~target:b = None);
  (* while the closed path is still provable *)
  verify_ok "closed path stays provable" (prove_exn engine a b)

(* The prover's counters are bumped from query-pool reader domains: with
   N domains proving K times each over one frozen view, every increment
   must land. *)
let test_prover_counters_exact_across_domains () =
  let sample name =
    match List.assoc_opt ("kronos_certify_" ^ name) (Kronos_metrics.samples ()) with
    | Some v -> int_of_float v
    | None -> Alcotest.failf "%s not registered" name
  in
  let counts () =
    (sample "proofs_generated_total", sample "proofs_unproved_total",
     sample "prover_visited_total")
  in
  let engine = Engine.create () in
  let ids = Array.init 16 (fun _ -> Engine.create_event engine) in
  for i = 0 to 14 do
    must engine ids.(i) ids.(i + 1)
  done;
  (* [x -> ids.(0)] lands after [ids.(0)]'s fold into [ids.(1)]: holds, unprovable *)
  let x = Engine.create_event engine in
  must engine x ids.(0);
  let view = Engine.publish engine in
  let p0, u0, v0 = counts () in
  Alcotest.(check bool) "provable" true
    (Prover.prove view ~source:ids.(0) ~target:ids.(15) <> None);
  Alcotest.(check bool) "unprovable" true
    (Prover.prove view ~source:x ~target:ids.(15) = None);
  let p1, u1, v1 = counts () in
  Alcotest.(check (pair int int)) "one of each" (1, 1) (p1 - p0, u1 - u0);
  let visits = v1 - v0 in
  let domains = 4 and k = 2_000 in
  List.init domains (fun _ ->
      Domain.spawn (fun () ->
          for _ = 1 to k do
            ignore (Prover.prove view ~source:ids.(0) ~target:ids.(15));
            ignore (Prover.prove view ~source:x ~target:ids.(15))
          done))
  |> List.iter Domain.join;
  let p2, u2, v2 = counts () in
  Alcotest.(check int) "proofs_generated_total" (domains * k) (p2 - p1);
  Alcotest.(check int) "proofs_unproved_total" (domains * k) (u2 - u1);
  Alcotest.(check int) "prover_visited_total" (domains * k * visits) (v2 - v1)

let prop_random_dag_roundtrip =
  let open QCheck2 in
  Test.make ~name:"certify: random DAG proofs verify" ~count:40
    Gen.(pair (int_range 0 10_000) (int_range 8 24))
    (fun (seed, n) ->
      let rng = Kronos_simnet.Rng.create ~seed:(Int64.of_int seed) in
      let engine = Engine.create () in
      let ids = Array.init n (fun _ -> Engine.create_event engine) in
      let m = 3 * n in
      for _ = 1 to m do
        let i = Kronos_simnet.Rng.int rng (n - 1) in
        let j = i + 1 + Kronos_simnet.Rng.int rng (n - i - 1) in
        ignore (Engine.assign_order engine [ Order.must_before ids.(i) ids.(j) ])
      done;
      let proofs = ref 0 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j && rel engine ids.(i) ids.(j) = Order.Before then begin
            match Prover.prove (Engine.current_view engine) ~source:ids.(i) ~target:ids.(j) with
            | None -> () (* true but not commitment-closed: allowed *)
            | Some cert ->
              incr proofs;
              (match Verifier.verify cert with
               | Ok () -> ()
               | Error m -> Test.fail_reportf "proof rejected: %s" m);
              (match
                 Verifier.verify_against cert
                   ~source_commit:(commit engine ids.(i))
                   ~target_commit:(commit engine ids.(j))
               with
               | Ok () -> ()
               | Error m -> Test.fail_reportf "live commitments rejected: %s" m);
              List.iter
                (fun (p, e) ->
                  if rel engine p e <> Order.Before then
                    Test.fail_report "certificate claims a non-edge")
                (Certificate.path_edges cert)
          end
        done
      done;
      (* edges admitted in topological batches are closed: some must prove *)
      !proofs > 0)

(* ---------- tamper injection ---------- *)

(* A diamond on top of a chain gives certificates with non-empty suffixes
   (several predecessors folded into one event after the path link). *)
let tamper_fixture () =
  let engine = Engine.create () in
  let a = Engine.create_event engine in
  let b = Engine.create_event engine in
  let c = Engine.create_event engine in
  let d = Engine.create_event engine in
  let t = Engine.create_event engine in
  must engine a b;
  must engine b t;
  must engine c t;
  must engine d t;
  let cert = prove_exn engine a t in
  verify_ok "fixture" cert;
  (engine, a, t, cert)

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

let expect_reject msg cert =
  match Verifier.verify cert with
  | Ok () -> Alcotest.fail (msg ^ ": tampered certificate accepted")
  | Error _ -> ()

let test_tamper_flipped_digest () =
  let _, _, _, cert = tamper_fixture () in
  expect_reject "target commit"
    { cert with Certificate.target_commit = flip_byte cert.Certificate.target_commit 3 };
  expect_reject "source commit"
    { cert with Certificate.source_commit = flip_byte cert.Certificate.source_commit 3 };
  let steps =
    List.mapi
      (fun i (s : Certificate.step) ->
        if i = 0 then { s with Certificate.pre = flip_byte s.Certificate.pre 0 } else s)
      cert.Certificate.steps
  in
  expect_reject "step pre" { cert with Certificate.steps = steps };
  let steps =
    List.mapi
      (fun i (s : Certificate.step) ->
        if i = 0 then
          { s with Certificate.pred_head = flip_byte s.Certificate.pred_head 7 }
        else s)
      cert.Certificate.steps
  in
  expect_reject "step pred_head" { cert with Certificate.steps = steps }

let test_tamper_truncated_path () =
  let _, _, _, cert = tamper_fixture () in
  (match cert.Certificate.steps with
   | [] -> Alcotest.fail "fixture has no steps"
   | _ :: tl -> expect_reject "dropped first step" { cert with Certificate.steps = tl });
  expect_reject "no steps at all" { cert with Certificate.steps = [] };
  match List.rev cert.Certificate.steps with
  | [] -> assert false
  | _ :: rtl ->
    expect_reject "dropped last step"
      { cert with Certificate.steps = List.rev rtl }

(* Splicing: graft a step or an endpoint commitment from a *different*
   (individually valid) certificate. *)
let test_tamper_spliced_proof () =
  let engine, a, t, cert = tamper_fixture () in
  let x = Engine.create_event engine in
  let y = Engine.create_event engine in
  must engine x y;
  let other = prove_exn engine x y in
  verify_ok "other" other;
  expect_reject "foreign steps" { cert with Certificate.steps = other.Certificate.steps };
  expect_reject "foreign source commitment"
    { cert with Certificate.source_commit = other.Certificate.source_commit };
  expect_reject "foreign step grafted on"
    { cert with Certificate.steps = other.Certificate.steps @ cert.Certificate.steps };
  (* endpoints renamed to foreign events, commitments kept *)
  expect_reject "renamed source" { cert with Certificate.source = x };
  ignore a;
  ignore t

let test_tamper_reordered_suffix () =
  let _, _, _, cert = tamper_fixture () in
  let reordered = ref false in
  let steps =
    List.map
      (fun (s : Certificate.step) ->
        match s.Certificate.suffix with
        | p :: q :: rest ->
          reordered := true;
          { s with Certificate.suffix = q :: p :: rest }
        | _ -> s)
      cert.Certificate.steps
  in
  if not !reordered then Alcotest.fail "fixture produced no multi-link suffix";
  expect_reject "reordered suffix" { cert with Certificate.steps = steps }

let test_codec_roundtrip () =
  let _, _, _, cert = tamper_fixture () in
  (match Certificate.decode (Certificate.encode cert) with
   | Ok c ->
     Alcotest.(check bool) "roundtrip equal" true (c = cert);
     verify_ok "decoded" c
   | Error m -> Alcotest.fail m);
  (match Certificate.decode "garbage" with
   | Ok _ -> Alcotest.fail "garbage decoded"
   | Error _ -> ());
  let enc = Certificate.encode cert in
  (match Certificate.decode (String.sub enc 0 (String.length enc - 3)) with
   | Ok _ -> Alcotest.fail "truncated bytes decoded"
   | Error _ -> ());
  match Certificate.decode (enc ^ "x") with
  | Ok _ -> Alcotest.fail "trailing bytes accepted"
  | Error _ -> ()

(* ---------- snapshots ---------- *)

module Snapshot = Kronos_durability.Snapshot

(* A deterministic engine with slot reuse: random must-edges over n events,
   then a few releases so restores exercise collected slots. *)
let build_engine ?config ~seed ~n () =
  let rng = Kronos_simnet.Rng.create ~seed:(Int64.of_int seed) in
  let engine = Engine.create ?config () in
  let ids = Array.init n (fun _ -> Engine.create_event engine) in
  for _ = 1 to 3 * n do
    let i = Kronos_simnet.Rng.int rng (n - 1) in
    let j = i + 1 + Kronos_simnet.Rng.int rng (n - i - 1) in
    ignore (Engine.assign_order engine [ Order.must_before ids.(i) ids.(j) ])
  done;
  Array.iteri
    (fun i e -> if i mod 7 = 3 then ignore (Engine.release_ref engine e))
    ids;
  (engine, ids)

let live_commitments engine ids =
  Array.to_list ids
  |> List.filter_map (fun e ->
         Option.map (fun c -> (e, c)) (Engine.commitment engine e))

let check_same_commitments msg expected candidate =
  List.iter
    (fun (e, c) ->
      match Engine.commitment candidate e with
      | Some c' when Chain_digest.equal c c' -> ()
      | Some _ -> Alcotest.failf "%s: commitment diverges" msg
      | None -> Alcotest.failf "%s: commitment lost" msg)
    expected

(* Every provable ordered pair among [ids]' live events yields a
   certificate on [engine] that verifies; returns how many were proved. *)
let verify_all_proofs msg engine ids =
  let g = Engine.current_view engine in
  let live = List.map fst (live_commitments engine ids) in
  let proved = ref 0 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if (not (Event_id.equal a b)) && rel engine a b = Order.Before then
            match Prover.prove g ~source:a ~target:b with
            | Some cert ->
              incr proved;
              verify_ok msg cert
            | None -> ())
        live)
    live;
  !proved

let test_snapshot_v3_roundtrip () =
  let engine, ids = build_engine ~seed:5 ~n:24 () in
  let data = Snapshot.encode ~seq:9 (Engine.to_snapshot engine) in
  let seq, snap = Snapshot.decode data in
  Alcotest.(check int) "seq" 9 seq;
  Alcotest.(check bool) "v3 carries links" true
    (snap.Engine.snap_graph.Graph.snap_links <> None);
  let restored = Engine.of_snapshot snap in
  (* exact chains restored: every live commitment is bit-identical *)
  check_same_commitments "v3 roundtrip" (live_commitments engine ids) restored;
  (* and proofs generated on the restored engine still verify (released
     events are gone on both sides: prove only over the live ones) *)
  Alcotest.(check bool) "restored engine proves" true
    (verify_all_proofs "restored proof" restored ids > 0)

(* A capture of a digest-less engine carries no link section.  Restoring
   it with digests on must rebuild the commitment chains canonically: both
   restores — straight from the capture and through the file encoding —
   answer exactly like the original, agree on every commitment, and prove
   orders with certificates that verify. *)
let prop_digest_toggle =
  let open QCheck2 in
  Test.make ~name:"certify: digest toggle rebuilds identical chains"
    ~count:25
    Gen.(int_range 0 10_000)
    (fun seed ->
      let engine, ids =
        build_engine
          ~config:{ Engine.default_config with digests = false }
          ~seed ~n:20 ()
      in
      let snap = Engine.to_snapshot engine in
      if snap.Engine.snap_graph.Graph.snap_links <> None then
        Test.fail_report "digest-less capture carries links";
      let _, decoded = Snapshot.decode (Snapshot.encode ~seq:7 snap) in
      if decoded.Engine.snap_graph.Graph.snap_links <> None then
        Test.fail_report "decoded capture grew links";
      let r1 = Engine.of_snapshot snap in
      let r2 = Engine.of_snapshot decoded in
      Array.iter
        (fun a ->
          Array.iter
            (fun b ->
              if not (Event_id.equal a b) then begin
                let expect = Engine.query_order engine [ (a, b) ] in
                if Engine.query_order r1 [ (a, b) ] <> expect then
                  Test.fail_report "restore diverges on a query";
                if Engine.query_order r2 [ (a, b) ] <> expect then
                  Test.fail_report "decoded restore diverges on a query"
              end)
            ids)
        ids;
      let c1 = live_commitments r1 ids in
      let c2 = live_commitments r2 ids in
      if c1 = [] then Test.fail_report "no live commitments";
      if
        not
          (List.length c1 = List.length c2
           && List.for_all2
                (fun (e, a) (e', b) ->
                  Event_id.equal e e' && Chain_digest.equal a b)
                c1 c2)
      then Test.fail_report "the two restores disagree on commitments";
      if verify_all_proofs "rebuilt chain proof" r1 ids = 0 then
        Test.fail_report "rebuilt chains proved nothing";
      true)

(* ---------- link stores against a record model ---------- *)

(* The commitment chains as the graph kept them before links went into
   flat stores: one record per link, partner and resulting head cached.
   A chain is a list, newest link first. *)
type model_link = {
  m_pred : Event_id.t;
  m_pred_head : string;
  m_pred_pos : int;
  m_partner : string;
  m_head : string;
}

let model_head e = function [] -> Chain_digest.init e | l :: _ -> l.m_head

(* What every accessor of [view] must answer for live event [e] whose
   chain the model holds as [links]: commitment, length, each link's
   predecessor fields and partner, and the head before the newest link
   and before a [rng]-chosen one (refolded). *)
let check_chain rng what view e links =
  let module C = Graph.Chain in
  let n = List.length links in
  let fail fmt = QCheck2.Test.fail_reportf ("%s: %a " ^^ fmt) what Event_id.pp e in
  if Engine.View.commitment view e <> Some (model_head e links) then
    fail "commitment";
  if Engine.View.chain_length view e <> Some n then fail "chain length";
  let c =
    match Engine.View.chain view e with Some c -> c | None -> fail "no chain"
  in
  if C.commitment c <> model_head e links then fail "chain commitment";
  if C.length c <> n then fail "chain length";
  List.iteri
    (fun k l ->
      let i = n - 1 - k in
      if not (Event_id.equal (C.pred c i) l.m_pred) then
        fail "pred of link %d" i;
      if C.pred_pos c i <> l.m_pred_pos then fail "pos of link %d" i;
      if C.pred_head c i <> l.m_pred_head then fail "pred head of link %d" i;
      if C.partner c i <> l.m_partner then fail "partner of link %d" i)
    links;
  let head_before i =
    (* the model head after the first [i] links *)
    model_head e (List.filteri (fun k _ -> k >= n - i) links)
  in
  List.iter
    (fun i -> if C.head_at c i <> head_before i then fail "head_at %d" i)
    (if n = 0 then [ 0 ] else [ n - 1; Kronos_simnet.Rng.int rng n; n ])

(* Random histories over one engine's graph — creates, rising and falling
   Musts, batches of staged edges that are sealed (their links folded in
   staging order) or aborted (no link folded), releases that collect and
   free slots for reuse, and snapshot round trips — checked after every
   step against the record model: on
   the live engine, and on every view published so far, which must keep
   answering for the events it captured exactly as the model did then.
   Every proof found between random live pairs must verify against the
   commitments of the view it was proved on. *)
let prop_link_store_model =
  let open QCheck2 in
  Test.make ~name:"certify: link stores match the record model" ~count:60
    Gen.(int_range 0 100_000)
    (fun seed ->
      let rng = Kronos_simnet.Rng.create ~seed:(Int64.of_int seed) in
      let int n = Kronos_simnet.Rng.int rng n in
      let engine = ref (Engine.create ()) in
      let g () = Engine.graph !engine in
      (* live events in creation order, with their model chains *)
      let model : (Event_id.t, model_link list) Hashtbl.t = Hashtbl.create 64 in
      let order = ref [] in
      let released = Hashtbl.create 16 in
      let views = ref [] in
      let create () =
        let e = Graph.create_event (g ()) in
        Hashtbl.replace model e [];
        order := !order @ [ e ]
      in
      let live () = Array.of_list !order in
      let fold u v =
        (* the link the record code folds for a sealed [u -> v] *)
        let lu = Hashtbl.find model u and lv = Hashtbl.find model v in
        let pred_head = model_head u lu in
        let partner = Chain_digest.link_partner u pred_head in
        Hashtbl.replace model v
          ({ m_pred = u; m_pred_head = pred_head;
             m_pred_pos = List.length lu; m_partner = partner;
             m_head = Chain_digest.fold_link (model_head v lv) partner }
           :: lv)
      in
      let add u v =
        if Graph.try_add_edge (g ()) u v then begin
          Graph.seal (g ());
          fold u v
        end
      in
      let pick_pair ~rising =
        let a = live () in
        let n = Array.length a in
        if n < 2 then None
        else
          let i = int (n - 1) in
          let j = i + 1 + int (n - i - 1) in
          Some (if rising then (a.(i), a.(j)) else (a.(j), a.(i)))
      in
      let publish () =
        let v = Engine.publish !engine in
        let captured =
          Hashtbl.fold (fun e links acc -> (e, links) :: acc) model []
        in
        views := (v, captured) :: !views
      in
      let sync_collected () =
        order := List.filter (fun e -> Graph.is_live (g ()) e) !order;
        Hashtbl.filter_map_inplace
          (fun e links -> if Graph.is_live (g ()) e then Some links else None)
          model
      in
      let prove_some view =
        let a = live () in
        let n = Array.length a in
        if n >= 2 then
          for _ = 1 to 3 do
            let s = a.(int n) and t = a.(int n) in
            match Prover.prove view ~source:s ~target:t with
            | None -> ()
            | Some cert ->
              let c e = Option.get (Engine.View.commitment view e) in
              (match
                 Verifier.verify_against cert ~source_commit:(c s)
                   ~target_commit:(c t)
               with
               | Ok () -> ()
               | Error m -> Test.fail_reportf "proof rejected: %s" m)
          done
      in
      for _ = 1 to 4 do create () done;
      for step = 1 to 70 do
        (match int 10 with
         | 0 | 1 -> create ()
         | 2 | 3 | 4 ->
           Option.iter (fun (u, v) -> add u v) (pick_pair ~rising:true)
         | 5 ->
           Option.iter (fun (u, v) -> add u v) (pick_pair ~rising:false)
         | 6 ->
           (* a batch: stage up to three edges, then seal them — the model
              folds their links in staging order — or abort them, which
              folds nothing *)
           let staged = ref [] in
           for _ = 1 to 1 + int 3 do
             Option.iter
               (fun (u, v) ->
                 if Graph.try_add_edge (g ()) u v then
                   staged := (u, v) :: !staged)
               (pick_pair ~rising:(int 3 > 0))
           done;
           if int 2 = 0 then Graph.abort (g ())
           else begin
             Graph.seal (g ());
             List.iter (fun (u, v) -> fold u v) (List.rev !staged)
           end
         | 7 ->
           let candidates =
             List.filter (fun e -> not (Hashtbl.mem released e)) !order
           in
           if candidates <> [] then begin
             let e = List.nth candidates (int (List.length candidates)) in
             Hashtbl.replace released e ();
             ignore (Graph.release_ref (g ()) e);
             sync_collected ()
           end
         | 8 ->
           engine := Engine.of_snapshot (Engine.to_snapshot !engine)
         | _ -> publish ());
        let what = Printf.sprintf "step %d live" step in
        let now = Engine.current_view !engine in
        Hashtbl.iter (fun e links -> check_chain rng what now e links) model;
        List.iteri
          (fun k (v, captured) ->
            let what = Printf.sprintf "step %d view %d" step k in
            List.iter (fun (e, links) -> check_chain rng what v e links) captured)
          !views;
        prove_some now;
        match !views with (v, _) :: _ -> prove_some v | [] -> ()
      done;
      true)

(* ---------- verified reads on the simnet service ---------- *)

module Sim = Kronos_simnet.Sim
module Net = Kronos_simnet.Net
module Server = Kronos_service.Server
module Client = Kronos_service.Client
module Error = Kronos_service.Error

type env = { sim : Sim.t; client : Client.t }

let make_env ?(seed = 5L) () =
  let sim = Sim.create ~seed () in
  let net = Kronos_transport.Sim_transport.of_net (Net.create sim) in
  ignore
    (Server.deploy ~net ~coordinator:1000 ~replicas:[ 0; 1; 2 ]
       ~ping_interval:0.1 ~failure_timeout:0.35 ());
  let client =
    Client.create ~net ~addr:2000 ~coordinator:1000 ~request_timeout:0.4 ()
  in
  { sim; client }

let await env f =
  let result = ref None in
  f (fun x -> result := Some x);
  let deadline = Sim.now env.sim +. 30.0 in
  while !result = None && Sim.now env.sim < deadline && Sim.pending env.sim > 0 do
    ignore (Sim.step env.sim)
  done;
  match !result with
  | Some x -> x
  | None -> Alcotest.fail "service call did not complete"

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.failf "unexpected error: %a" Error.pp e

let test_verified_read_service () =
  let env = make_env () in
  let n = 6 in
  let ids = Array.init n (fun _ -> ok (await env (Client.create_event env.client))) in
  for i = 0 to n - 2 do
    ignore
      (ok
         (await env
            (Client.assign_order env.client
               [ Order.must_before ids.(i) ids.(i + 1) ])))
  done;
  (* drop everything assign_order itself cached so the prefill is visible *)
  Option.iter Order_cache.clear (Client.cache env.client);
  let queries0 = Client.server_queries env.client in
  (match await env (Client.query_verified env.client ids.(0) ids.(n - 1)) with
   | Ok (r, Some cert) ->
     Alcotest.(check relation) "verified before" Order.Before r;
     Alcotest.(check int) "whole chain proven" (n - 1)
       (Certificate.path_length cert)
   | Ok (_, None) -> Alcotest.fail "chain head-to-tail must be provable"
   | Error e -> Alcotest.failf "verified read failed: %a" Error.pp e);
  (* flipped endpoints answer After, also verified *)
  (match await env (Client.query_verified env.client ids.(n - 1) ids.(0)) with
   | Ok (r, Some _) -> Alcotest.(check relation) "verified after" Order.After r
   | Ok (_, None) -> Alcotest.fail "after must be provable too"
   | Error e -> Alcotest.failf "verified read failed: %a" Error.pp e);
  (* the verified path pre-filled the cache: inner pairs answer locally *)
  let stats = Option.get (Client.cache_stats env.client) in
  Alcotest.(check bool) "prefills recorded" true
    (stats.Order_cache.stat_prefills > 0);
  let queries1 = Client.server_queries env.client in
  let r = ok (await env (Client.query_order env.client [ (ids.(1), ids.(4)) ])) in
  Alcotest.(check (list relation)) "inner pair" [ Order.Before ] r;
  Alcotest.(check int) "inner pair came from the cache" queries1
    (Client.server_queries env.client);
  Alcotest.(check bool) "hit counter moved" true
    ((Option.get (Client.cache_stats env.client)).Order_cache.stat_hits
     > stats.Order_cache.stat_hits);
  ignore queries0;
  (* a concurrent pair carries no certificate *)
  let x = ok (await env (Client.create_event env.client)) in
  match await env (Client.query_verified env.client x ids.(0)) with
  | Ok (r, cert) ->
    Alcotest.(check relation) "concurrent" Order.Concurrent r;
    Alcotest.(check bool) "no certificate" true (cert = None)
  | Error e -> Alcotest.failf "concurrent verified read failed: %a" Error.pp e

(* ---------- verified read over real loopback TCP ---------- *)

module Chain = Kronos_replication.Chain
module Transport = Kronos_transport.Transport
module Event_loop = Kronos_transport.Event_loop
module Tcp = Kronos_transport.Tcp_transport

let test_verified_read_tcp () =
  let loop = Event_loop.create () in
  let chain_tcp () =
    Tcp.create ~loop ~encode:Kronos_replication.Chain_codec.encode
      ~decode:Kronos_replication.Chain_codec.decode ()
  in
  let ts = chain_tcp () in
  let port = Tcp.listen ts ~port:0 () in
  let tc = chain_tcp () in
  List.iter
    (fun t ->
      List.iter
        (fun a -> Tcp.add_peer t a ~host:"127.0.0.1" ~port)
        [ 1000; 1 ])
    [ ts; tc ];
  let _replica = Server.start_node ~net:(Tcp.transport ts) ~addr:1 () in
  let _coord =
    Chain.Coordinator.create ~net:(Tcp.transport ts) ~addr:1000 ~chain:[ 1 ]
      ~ping_interval:0.1 ~failure_timeout:0.5 ()
  in
  let client =
    Client.create ~net:(Tcp.transport tc) ~addr:5000 ~coordinator:1000
      ~request_timeout:0.2 ()
  in
  Tcp.connect_peers tc;
  let await f =
    let result = ref None in
    f (fun x -> result := Some x);
    if not
         (Event_loop.run_until loop
            ~deadline:(Event_loop.now loop +. 30.)
            (fun () -> !result <> None))
    then Alcotest.fail "TCP call did not complete";
    Option.get !result
  in
  let a = ok (await (Client.create_event client ~timeout:10.)) in
  let b = ok (await (Client.create_event client ~timeout:10.)) in
  let c = ok (await (Client.create_event client ~timeout:10.)) in
  ignore (ok (await (Client.assign_order client ~timeout:10. [ Order.must_before a b ])));
  ignore (ok (await (Client.assign_order client ~timeout:10. [ Order.must_before b c ])));
  (match await (Client.query_verified client ~timeout:10. a c) with
   | Ok (r, Some cert) ->
     Alcotest.(check relation) "verified over TCP" Order.Before r;
     Alcotest.(check int) "two-edge path" 2 (Certificate.path_length cert);
     verify_ok "TCP certificate" cert
   | Ok (_, None) -> Alcotest.fail "TCP verified read returned no certificate"
   | Error e -> Alcotest.failf "TCP verified read failed: %a" Error.pp e);
  Tcp.shutdown tc;
  Tcp.shutdown ts

(* ---------- audit pinning ---------- *)

let test_audit_detects_rewrite () =
  (* honest history: a -> b -> c *)
  let honest = Engine.create () in
  let a = Engine.create_event honest in
  let b = Engine.create_event honest in
  let c = Engine.create_event honest in
  must honest a b;
  must honest b c;
  let audit = Audit.create () in
  (match Audit.check audit (prove_exn honest b c) with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "honest certificate rejected");
  (* append-only growth never disturbs existing pins *)
  let d = Engine.create_event honest in
  must honest c d;
  (match Audit.check audit (prove_exn honest a d) with
   | Ok () -> ()
   | Error _ -> Alcotest.fail "append-only growth flagged");
  Alcotest.(check int) "no conflicts yet" 0 (Audit.conflict_count audit);
  (* byzantine rewrite: same event ids, b -> c replaced by a -> c *)
  let byz = Engine.create () in
  let a' = Engine.create_event byz in
  let b' = Engine.create_event byz in
  let c' = Engine.create_event byz in
  Alcotest.(check bool) "same identifiers" true (Event_id.equal c c');
  must byz a' b';
  must byz a' c';
  let forged = prove_exn byz a' c' in
  (* internally consistent on its own... *)
  verify_ok "forged cert verifies standalone" forged;
  (* ...but conflicts with the pinned history *)
  (match Audit.check audit forged with
   | Error (`Conflict conflict) ->
     Alcotest.(check bool) "conflict names the rewritten event" true
       (Event_id.equal conflict.Audit.event c)
   | Ok () -> Alcotest.fail "rewrite not detected"
   | Error (`Invalid m) -> Alcotest.failf "unexpected invalid: %s" m);
  Alcotest.(check int) "conflict counted" 1 (Audit.conflict_count audit);
  (* tampered certificates report `Invalid, not `Conflict *)
  let cert = prove_exn honest c d in
  match
    Audit.check audit
      { cert with Certificate.target_commit = flip_byte cert.Certificate.target_commit 2 }
  with
  | Error (`Conflict _) | Error (`Invalid _) -> ()
  | Ok () -> Alcotest.fail "tampered certificate accepted by audit"

let suites =
  [
    ( "certify.sha256",
      [
        Alcotest.test_case "NIST vectors" `Quick test_nist_vectors;
        Alcotest.test_case "compress_pair known answers" `Quick
          test_compress_pair_known_answers;
        Alcotest.test_case "compress_pair arguments" `Quick
          test_compress_pair_args;
        QCheck_alcotest.to_alcotest prop_paths_agree;
        Alcotest.test_case "accelerated where available" `Quick
          test_accelerated_where_available;
      ] );
    ( "certify.chain",
      [
        Alcotest.test_case "incremental maintenance" `Quick
          test_chain_maintenance;
        Alcotest.test_case "abort rolls folds back" `Quick
          test_rollback_restores_chain;
        Alcotest.test_case "digests off" `Quick test_digests_off;
        QCheck_alcotest.to_alcotest prop_link_store_model;
      ] );
    ( "certify.proof",
      [
        Alcotest.test_case "direct edge" `Quick test_direct_edge;
        Alcotest.test_case "chain path" `Quick test_chain_path;
        Alcotest.test_case "unprovable answers None" `Quick
          test_unprovable_is_none;
        Alcotest.test_case "counters exact across domains" `Quick
          test_prover_counters_exact_across_domains;
        QCheck_alcotest.to_alcotest prop_random_dag_roundtrip;
      ] );
    ( "certify.tamper",
      [
        Alcotest.test_case "flipped digest" `Quick test_tamper_flipped_digest;
        Alcotest.test_case "truncated path" `Quick test_tamper_truncated_path;
        Alcotest.test_case "spliced proof" `Quick test_tamper_spliced_proof;
        Alcotest.test_case "reordered suffix" `Quick
          test_tamper_reordered_suffix;
        Alcotest.test_case "wire roundtrip and garbage" `Quick
          test_codec_roundtrip;
      ] );
    ( "certify.snapshot",
      [
        Alcotest.test_case "v3 roundtrip" `Quick test_snapshot_v3_roundtrip;
        QCheck_alcotest.to_alcotest prop_digest_toggle;
      ] );
    ( "certify.service",
      [
        Alcotest.test_case "verified read + cache prefill" `Quick
          test_verified_read_service;
        Alcotest.test_case "verified read over TCP" `Quick
          test_verified_read_tcp;
      ] );
    ( "certify.audit",
      [ Alcotest.test_case "byzantine rewrite detected" `Quick
          test_audit_detects_rewrite ] );
  ]
