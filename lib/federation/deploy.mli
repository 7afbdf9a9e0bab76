(** Federation deployment helper: start [shards] independent chains over
    one transport plus a {!Router} connected to all of them, under a fixed
    address plan:

    - shard [s] (0-based position) replicas: [100 * (s + 1) + r];
    - shard [s] coordinator: [1000 + s];
    - router address block: [2000 ..] (one proxy per shard + stats plane).

    The deterministic simnet federation harness, the federation benches and
    the determinism CI gate all deploy through this module, so a seed fully
    determines the run. *)

module Transport = Kronos_transport.Transport

type t = {
  router : Router.t;
  clusters : (int * Kronos_service.Server.cluster) list;
      (** shard id -> its chain, ascending *)
  endpoints : Router.endpoint list;
  per_shard : int;  (** replicas per shard, as deployed *)
}

val deploy :
  net:Kronos_replication.Chain.msg Transport.t ->
  ?shards:int list ->
  ?replicas_per_shard:int ->
  ?service:float ->
  ?cache_capacity:int ->
  ?request_timeout:float ->
  ?vnodes:int ->
  ?ping_interval:float ->
  ?failure_timeout:float ->
  unit ->
  t
(** Defaults: shard ids [[0; 1]], 3 replicas each.  [service] models
    replica CPU capacity per chain (the write-scaling bench fixes it so
    aggregate throughput is limited by shard service time, not by the
    simulated network). *)

val cluster_of : t -> int -> Kronos_service.Server.cluster option

val replica_addrs : t -> int -> Transport.addr list
(** Replica addresses of one shard under the address plan (position-based,
    matching what {!deploy} started). *)

val coordinator_addr : t -> int -> Transport.addr
(** @raise Not_found on an unknown shard id. *)

val stats_targets : t -> (int * Transport.addr) list
(** One [(shard, coordinator)] pair per shard — ready to pass to
    {!Router.merged_stats}. *)
