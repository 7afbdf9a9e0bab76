let fulls_kept = 2
let default_wal_bytes = 4 * 1024 * 1024

type t = {
  storage : Storage.t;
  wal : Wal.t;
  window : int;
  mutable last_snap : int;
  mutable mark : int;  (* [Wal.logged_bytes] at the last snapshot *)
}

let create storage wal ~wal_bytes ~snapshot_seq =
  {
    storage;
    wal;
    window = wal_bytes;
    last_snap = snapshot_seq;
    mark = Wal.logged_bytes wal;
  }

let last_snapshot t = t.last_snap

let rebase t ~seq =
  t.last_snap <- seq;
  t.mark <- Wal.logged_bytes t.wal;
  Wal.truncate_before t.wal ~seq

let commit t engine ~upto =
  Wal.flush t.wal;
  if Wal.logged_bytes t.wal - t.mark >= t.window && upto > t.last_snap then begin
    Snapshot.write t.storage ~seq:upto engine;
    (* the snapshot is durable (tmp -> sync -> rename): only now may the
       WAL and the older files it covers be retired *)
    rebase t ~seq:upto;
    ignore (Snapshot.compact t.storage ~keep:fulls_kept)
  end

let install t ~seq bytes =
  Snapshot.write_bytes t.storage ~seq bytes;
  rebase t ~seq
