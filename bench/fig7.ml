(* Figure 7: transactional key-value store throughput.

   Three bank implementations over the same sharded store, 64 concurrent
   clients.  Paper: Kronos-ordered transactions run at 94 % of the
   non-transactional "put-and-pray" baseline and 3.6x the lock-based one.

   Shards are capacity-modelled (fixed per-request CPU cost), so throughput
   reflects server load and lock-induced blocking, not just link latency —
   the regime the paper's cluster operated in. *)

open Kronos_simnet
open Kronos_kvstore
open Kronos_txn
module Bank = Kronos_workload.Bank

type result = {
  throughput : float;
  retries : int;
  conserved : bool;
}

(* The paper's cluster is server-bound: a handful of shard servers saturated
   by 64 clients.  Four shards at 50 µs/request saturate well below the
   offered load, so throughput reflects per-transaction server work (and
   lock-induced blocking), as in the paper. *)
let shard_count = 4
let shard_service_time = 50e-6
let kronos_service_time = 10e-6

let run_mode ~mode ~clients ~ops ~accounts ~skew ~seed =
  let sim = Sim.create ~seed () in
  let kv_net = Net.create sim in
  let shard_addrs = Array.init shard_count (fun i -> i) in
  let shards =
    Array.map
      (fun a -> Shard.create ~net:kv_net ~addr:a ~service_time:shard_service_time ())
      shard_addrs
  in
  let chain_net = Kronos_transport.Sim_transport.of_net (Net.create sim) in
  (* single Kronos instance on its own server, as in the paper's application
     benchmarks (Section 4.1; fault tolerance is evaluated separately) *)
  ignore
    (Kronos_service.Server.deploy ~net:chain_net ~coordinator:1000
       ~replicas:[ 0 ] ~service:kronos_service_time ());
  (* seed accounts *)
  let seeder = Kv_client.create ~net:kv_net ~addr:900 in
  for i = 0 to accounts - 1 do
    let key = Bank.account_key i in
    Kv_client.request seeder
      ~shard:shard_addrs.(Router.shard_of ~shards:shard_count key)
      (Kv_msg.Put { key; value = "1000" })
      (fun _ -> ())
  done;
  Sim.run ~until:(Sim.now sim +. 30.0) sim;
  let ids = Executor.id_source () in
  let bank = Bank.create ~rng:(Rng.split (Sim.rng sim)) ~accounts ~skew () in
  let executors =
    Array.init clients (fun i ->
        let kv = Kv_client.create ~net:kv_net ~addr:(100 + i) in
        let kronos =
          match mode with
          | Executor.Kronos_ordered ->
            Some
              (Kronos_service.Client.create ~net:chain_net ~addr:(5000 + i)
                 ~coordinator:1000 ~request_timeout:5.0 ())
          | Executor.Put_and_pray | Executor.Locking -> None
        in
        Executor.create ~mode ~sim ~kv ~shards:shard_addrs ~ids ?kronos ())
  in
  let issued = ref 0 and completed = ref 0 in
  let started = Sim.now sim in
  let finished = ref started in
  let rec loop exec =
    if !issued < ops then begin
      incr issued;
      Executor.transfer exec (Bank.next_transfer bank) (fun _ ->
          incr completed;
          finished := Sim.now sim;
          loop exec)
    end
  in
  Array.iter loop executors;
  Sim.run ~until:(started +. 3600.0) sim;
  let total = ref 0 in
  for i = 0 to accounts - 1 do
    Array.iter
      (fun shard ->
        match Shard.peek shard (Bank.account_key i) with
        | Some v -> total := !total + int_of_string v
        | None -> ())
      shards
  done;
  {
    throughput =
      (if !completed = 0 then 0.0
       else float_of_int !completed /. (!finished -. started));
    retries = Array.fold_left (fun acc e -> acc + Executor.retries e) 0 executors;
    conserved = !total = accounts * 1000;
  }

let run () =
  Bench_util.section "Figure 7: transactional KV store (bank workload, 64 clients)";
  Bench_util.paper
    "put-and-pray ~4.7k tx/s, locking ~1.2k tx/s, Kronos ~4.4k tx/s";
  Bench_util.paper "Kronos = 3.6x locking, 94%% of put-and-pray";
  let ops = Bench_util.scaled 3_000 20_000 in
  let clients = 64 and accounts = 2_000 and skew = 0.8 in
  let bench mode label =
    let r = run_mode ~mode ~clients ~ops ~accounts ~skew ~seed:9L in
    Printf.printf "  %-14s %10.0f tx/s (virtual)   retries: %-5d money %s\n%!"
      label r.throughput r.retries
      (if r.conserved then "conserved"
       else if mode = Executor.Put_and_pray then "LOST (expected for put-and-pray)"
       else "LOST (BUG!)");
    r
  in
  let pnp = bench Executor.Put_and_pray "put-and-pray" in
  let locking = bench Executor.Locking "locking" in
  let kronos = bench Executor.Kronos_ordered "kronos" in
  Bench_util.ours "Kronos/locking = %.1fx (paper: 3.6x); Kronos/put-and-pray = %.0f%% (paper: 94%%)"
    (kronos.throughput /. locking.throughput)
    (100.0 *. kronos.throughput /. pnp.throughput)
