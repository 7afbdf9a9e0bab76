open Kronos

type request =
  | Create_event
  | Acquire_ref of Event_id.t
  | Release_ref of Event_id.t
  | Query_order of {
      min_epoch : int64;
      pairs : (Event_id.t * Event_id.t) list;
    }
  | Assign_order of Order.spec list
  | Query_proof of (Event_id.t * Event_id.t)

type response =
  | Event_created of Event_id.t
  | Ref_acquired
  | Ref_released of int
  | Orders of { epoch : int64; rels : Order.relation list }
  | Outcomes of { epoch : int64; outs : Order.outcome list }
  | Rejected of Order.assign_error
  | Proof_is of {
      relation : Order.relation;
      cert : Kronos_certify.Certificate.t option;
    }

let put_event b e = Codec.put_i64 b (Event_id.to_int64 e)

let get_event d =
  let raw = Codec.get_i64 d in
  match Event_id.of_int64 raw with
  | id -> id
  | exception Invalid_argument _ ->
    raise (Codec.Decode_error (Printf.sprintf "bad event id %Ld" raw))

let put_direction b = function
  | Order.Happens_before -> Codec.put_u8 b 0
  | Order.Happens_after -> Codec.put_u8 b 1

let get_direction d =
  match Codec.get_u8 d with
  | 0 -> Order.Happens_before
  | 1 -> Order.Happens_after
  | n -> raise (Codec.Decode_error (Printf.sprintf "bad direction %d" n))

let put_kind b = function
  | Order.Must -> Codec.put_u8 b 0
  | Order.Prefer -> Codec.put_u8 b 1

let get_kind d =
  match Codec.get_u8 d with
  | 0 -> Order.Must
  | 1 -> Order.Prefer
  | n -> raise (Codec.Decode_error (Printf.sprintf "bad kind %d" n))

let put_relation b = function
  | Order.Before -> Codec.put_u8 b 0
  | Order.After -> Codec.put_u8 b 1
  | Order.Concurrent -> Codec.put_u8 b 2
  | Order.Same -> Codec.put_u8 b 3

let get_relation d =
  match Codec.get_u8 d with
  | 0 -> Order.Before
  | 1 -> Order.After
  | 2 -> Order.Concurrent
  | 3 -> Order.Same
  | n -> raise (Codec.Decode_error (Printf.sprintf "bad relation %d" n))

let put_outcome b = function
  | Order.Applied -> Codec.put_u8 b 0
  | Order.Already -> Codec.put_u8 b 1
  | Order.Reversed -> Codec.put_u8 b 2

let get_outcome d =
  match Codec.get_u8 d with
  | 0 -> Order.Applied
  | 1 -> Order.Already
  | 2 -> Order.Reversed
  | n -> raise (Codec.Decode_error (Printf.sprintf "bad outcome %d" n))

let put_error b = function
  | Order.Must_violated i -> Codec.put_u8 b 0; Codec.put_u32 b i
  | Order.Must_self i -> Codec.put_u8 b 1; Codec.put_u32 b i
  | Order.Unknown_event e -> Codec.put_u8 b 2; put_event b e

(* Error tag 3 (the retired guard failure) is malformed; never reuse it. *)
let get_error d =
  match Codec.get_u8 d with
  | 0 -> Order.Must_violated (Codec.get_u32 d)
  | 1 -> Order.Must_self (Codec.get_u32 d)
  | 2 -> Order.Unknown_event (get_event d)
  | n -> raise (Codec.Decode_error (Printf.sprintf "bad error tag %d" n))

let put_spec b (s : Order.spec) =
  put_event b s.left;
  put_direction b s.direction;
  put_kind b s.kind;
  put_event b s.right

let get_spec d =
  let left = get_event d in
  let direction = get_direction d in
  let kind = get_kind d in
  let right = get_event d in
  { Order.left; direction; kind; right }

let encode_request r =
  let b = Codec.encoder () in
  (match r with
   | Create_event -> Codec.put_u8 b 0
   | Acquire_ref e -> Codec.put_u8 b 1; put_event b e
   | Release_ref e -> Codec.put_u8 b 2; put_event b e
   | Query_proof (e1, e2) ->
     Codec.put_u8 b 6;
     put_event b e1;
     put_event b e2
   | Query_order { min_epoch; pairs } ->
     Codec.put_u8 b 7;
     Codec.put_i64 b min_epoch;
     Codec.put_list b (fun b (e1, e2) -> put_event b e1; put_event b e2) pairs
   | Assign_order reqs ->
     Codec.put_u8 b 8;
     Codec.put_list b put_spec reqs);
  Codec.to_string b

(* Request tags 3 and 4 (the unstamped query and assign) and 5 (the
   guarded assign of the removed federation layer) are retired: they
   decode as malformed and must not be reused. *)
let decode_request s =
  let d = Codec.decoder s in
  let r =
    match Codec.get_u8 d with
    | 0 -> Create_event
    | 1 -> Acquire_ref (get_event d)
    | 2 -> Release_ref (get_event d)
    | 6 ->
      let e1 = get_event d in
      let e2 = get_event d in
      Query_proof (e1, e2)
    | 7 ->
      let min_epoch = Codec.get_i64 d in
      let pairs =
        Codec.get_list d (fun d ->
            let e1 = get_event d in
            let e2 = get_event d in
            (e1, e2))
      in
      Query_order { min_epoch; pairs }
    | 8 -> Assign_order (Codec.get_list d get_spec)
    | n -> raise (Codec.Decode_error (Printf.sprintf "bad request tag %d" n))
  in
  Codec.expect_end d;
  r

let encode_response r =
  let b = Codec.encoder () in
  (match r with
   | Event_created e -> Codec.put_u8 b 0; put_event b e
   | Ref_acquired -> Codec.put_u8 b 1
   | Ref_released n -> Codec.put_u8 b 2; Codec.put_u32 b n
   | Rejected e -> Codec.put_u8 b 5; put_error b e
   | Proof_is { relation; cert } ->
     Codec.put_u8 b 6;
     put_relation b relation;
     (match cert with
      | None -> Codec.put_bool b false
      | Some c ->
        Codec.put_bool b true;
        (* the certificate carries its own self-describing encoding; the
           wire layer only frames it as an opaque string *)
        Codec.put_string b (Kronos_certify.Certificate.encode c))
   | Orders { epoch; rels } ->
     Codec.put_u8 b 7;
     Codec.put_i64 b epoch;
     Codec.put_list b put_relation rels
   | Outcomes { epoch; outs } ->
     Codec.put_u8 b 8;
     Codec.put_i64 b epoch;
     Codec.put_list b put_outcome outs);
  Codec.to_string b

let decode_response s =
  let d = Codec.decoder s in
  let r =
    match Codec.get_u8 d with
    | 0 -> Event_created (get_event d)
    | 1 -> Ref_acquired
    | 2 -> Ref_released (Codec.get_u32 d)
    | 5 -> Rejected (get_error d)
    | 6 ->
      let relation = get_relation d in
      let cert =
        if not (Codec.get_bool d) then None
        else
          match Kronos_certify.Certificate.decode (Codec.get_string d) with
          | Ok c -> Some c
          | Error m -> raise (Codec.Decode_error m)
      in
      Proof_is { relation; cert }
    | 7 ->
      let epoch = Codec.get_i64 d in
      let rels = Codec.get_list d get_relation in
      Orders { epoch; rels }
    | 8 ->
      let epoch = Codec.get_i64 d in
      let outs = Codec.get_list d get_outcome in
      Outcomes { epoch; outs }
    | n -> raise (Codec.Decode_error (Printf.sprintf "bad response tag %d" n))
  in
  Codec.expect_end d;
  r

let request_equal a b = encode_request a = encode_request b
let response_equal a b = encode_response a = encode_response b

let pp_request ppf = function
  | Create_event -> Format.pp_print_string ppf "create_event"
  | Acquire_ref e -> Format.fprintf ppf "acquire_ref(%a)" Event_id.pp e
  | Release_ref e -> Format.fprintf ppf "release_ref(%a)" Event_id.pp e
  | Query_order { min_epoch; pairs } ->
    Format.fprintf ppf "query_order(>=%Ld, %d pairs)" min_epoch
      (List.length pairs)
  | Assign_order reqs -> Format.fprintf ppf "assign_order(%d pairs)" (List.length reqs)
  | Query_proof (e1, e2) ->
    Format.fprintf ppf "query_proof(%a, %a)" Event_id.pp e1 Event_id.pp e2

let pp_response ppf = function
  | Event_created e -> Format.fprintf ppf "event_created(%a)" Event_id.pp e
  | Ref_acquired -> Format.pp_print_string ppf "ref_acquired"
  | Ref_released n -> Format.fprintf ppf "ref_released(%d collected)" n
  | Orders { epoch; rels } ->
    Format.fprintf ppf "orders(@%Ld, %a)" epoch
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Order.pp_relation)
      rels
  | Outcomes { epoch; outs } ->
    Format.fprintf ppf "outcomes(@%Ld, %a)" epoch
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
         Order.pp_outcome)
      outs
  | Rejected e -> Format.fprintf ppf "rejected(%a)" Order.pp_assign_error e
  | Proof_is { relation; cert } ->
    Format.fprintf ppf "proof_is(%a, %s)" Order.pp_relation relation
      (match cert with
       | Some c ->
         Printf.sprintf "%d-step certificate"
           (Kronos_certify.Certificate.path_length c)
       | None -> "no certificate")
