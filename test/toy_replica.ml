(* Chain replicas for the replication tests that host a toy state machine
   instead of a Kronos engine.  Every replica keeps its history in a WAL,
   so the toy ones get one too, over fresh in-memory storage. *)

open Kronos_replication
module Storage = Kronos_durability.Storage
module Wal = Kronos_durability.Wal

(* Persistence hooks over a WAL on fresh in-memory storage, for a state
   machine whose whole state [save] encodes and [load] restores.  The log
   is never truncated, so a state transfer always ships its tail unless a
   snapshot was installed. *)
let persist ~save ~load =
  let wal, _ = Wal.open_ (Storage.Memory.storage (Storage.Memory.create ())) in
  {
    Chain.Replica.log_entry =
      (fun ~seq ~client ~req_id ~cmd ->
        Wal.append wal ~seq
          ~payload:(Chain.encode_entry_payload ~client ~req_id ~cmd));
    commit = (fun ~upto:_ -> Wal.flush wal);
    snapshot = (fun ~upto -> (upto, save ()));
    tail =
      (fun ~since ->
        Option.map
          (List.map (fun (r : Wal.record) ->
               let client, req_id, cmd = Chain.decode_entry_payload r.payload in
               (r.seq, client, req_id, cmd)))
          (Wal.read_from wal ~since));
    install =
      (fun ~seq bytes ->
        load bytes;
        Wal.truncate_before wal ~seq);
  }

(* An integer register: "add:<n>" adds n and returns the new value; "get"
   returns the value. *)
let register ~net ~addr () =
  let value = ref 0 in
  let apply cmd =
    match String.split_on_char ':' cmd with
    | [ "add"; n ] ->
      value := !value + int_of_string n;
      string_of_int !value
    | [ "get" ] -> string_of_int !value
    | _ -> "error"
  in
  Chain.Replica.create ~net ~addr ~apply
    ~persist:
      (persist
         ~save:(fun () -> string_of_int !value)
         ~load:(fun s -> value := int_of_string s))
    ()
