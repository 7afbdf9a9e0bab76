open Kronos

let max_delta_chain = 8
let fulls_kept = 2
let default_wal_bytes = 4 * 1024 * 1024

type t = {
  storage : Storage.t;
  wal : Wal.t;
  window : int;
  mutable last_snap : int;
  (* deltas written since the last full snapshot; [max_delta_chain]
     forces the next snapshot full, which is how a recovery or an install
     keeps deltas from basing on state this process did not capture *)
  mutable deltas : int;
  mutable mark : int;  (* [Wal.logged_bytes] at the last snapshot *)
}

let create storage wal ~wal_bytes ~snapshot_seq =
  {
    storage;
    wal;
    window = wal_bytes;
    last_snap = snapshot_seq;
    deltas = max_delta_chain;
    mark = Wal.logged_bytes wal;
  }

let last_snapshot t = t.last_snap

let rebase t ~seq =
  t.last_snap <- seq;
  t.mark <- Wal.logged_bytes t.wal;
  Wal.truncate_before t.wal ~seq

let snapshot t engine ~upto =
  if t.deltas < max_delta_chain then begin
    Snapshot.write_delta t.storage ~base_seq:t.last_snap ~seq:upto engine;
    t.deltas <- t.deltas + 1
  end
  else begin
    Snapshot.write t.storage ~seq:upto engine;
    t.deltas <- 0
  end;
  (* the capture is durable (tmp -> sync -> rename): only now may the
     dirty set restart, and only now may covered files be retired *)
  Engine.snapshot_written engine;
  rebase t ~seq:upto;
  ignore (Snapshot.compact t.storage ~keep:fulls_kept)

let commit t engine ~upto =
  Wal.flush t.wal;
  if Wal.logged_bytes t.wal - t.mark >= t.window && upto > t.last_snap then
    snapshot t engine ~upto

let install t ~seq bytes =
  Snapshot.write_bytes t.storage ~seq bytes;
  t.deltas <- max_delta_chain;
  rebase t ~seq
