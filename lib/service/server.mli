(** Kronos as a replicated service.

    Each replica hosts a deterministic {!Kronos.Engine} and applies wire
    commands to it; because every API call is deterministic, replicas stay
    identical under chain replication (Section 2.4 of the paper).

    Every replica keeps a write-ahead log of applied commands and periodic
    engine snapshots (see [kronos_durability]); they are its only record
    of past commands, and what state transfer ships to a joining replica.
    A {!durability} configuration puts them in storage that outlives the
    replica, so a crashed replica can be restarted from its own disk with
    {!restart_replica} instead of requiring a full state transfer from a
    live peer.  Without one, each replica start gets fresh in-memory
    storage. *)

open Kronos
module Durability = Kronos_durability

val apply : Engine.t -> string -> string
(** [apply engine cmd] decodes a {!Kronos_wire.Message.request}, executes it
    on [engine] and returns the encoded response.  Malformed commands yield
    an encoded [Rejected] response rather than raising. *)

(** Per-cluster durability configuration.  Every durable replica runs the
    one snapshot schedule, {!Durability.Schedule}: a full snapshot once
    [wal_bytes_per_snapshot] WAL bytes accrue, and compaction of what
    each snapshot covers. *)
type durability = {
  storage_of : Kronos_transport.Transport.addr -> Durability.Storage.t;
      (** each replica's private storage directory; must return the {e
          same} storage for the same address across restarts *)
  wal_config : Durability.Wal.config;
  wal_bytes_per_snapshot : int;  (** snapshot once this many WAL bytes accrue *)
}

val durability :
  ?wal_config:Durability.Wal.config ->
  ?wal_bytes_per_snapshot:int ->
  storage_of:(Kronos_transport.Transport.addr -> Durability.Storage.t) ->
  unit ->
  durability
(** Defaults: {!Durability.Wal.default_config} and
    {!Durability.Schedule.default_wal_bytes} (4 MiB).
    @raise Invalid_argument when [wal_bytes_per_snapshot < 1]. *)

(** A running replicated Kronos deployment over any transport.

    Engines are held by reference: installing a state-transfer snapshot or
    recovering after a restart replaces a replica's engine wholesale. *)
type cluster = {
  net : Kronos_replication.Chain.msg Kronos_transport.Transport.t;
  coordinator : Kronos_replication.Chain.Coordinator.t;
  mutable replicas : (Kronos_replication.Chain.Replica.t * Engine.t ref) list;
  dur : durability;  (** fresh in-memory storage per start when deployed
                         without [~durability] *)
}

val start_node :
  net:Kronos_replication.Chain.msg Kronos_transport.Transport.t ->
  addr:Kronos_transport.Transport.addr ->
  ?durability:durability ->
  ?query_pool:Query_pool.t ->
  unit ->
  Kronos_replication.Chain.Replica.t * Engine.t ref
(** Start a single engine-backed replica without a coordinator or cluster
    handle — the building block for hosting one replica per process (see
    [kronosd]).  The caller wires it into a chain with
    {!Kronos_replication.Chain.Replica.announce_join}.  It recovers from
    [durability]'s storage first, exactly as in {!deploy}; without
    [durability] it starts blank over fresh in-memory storage.
    With [query_pool] the replica's local reads are offloaded to reader
    domains over published engine views ({!Query_pool}, DESIGN.md §14);
    the pool follows the engine cell across snapshot installs and
    restarts. *)

val deploy :
  net:Kronos_replication.Chain.msg Kronos_transport.Transport.t ->
  coordinator:Kronos_transport.Transport.addr ->
  replicas:Kronos_transport.Transport.addr list ->
  ?durability:durability ->
  ?ping_interval:float ->
  ?failure_timeout:float ->
  unit ->
  cluster
(** Start one engine-backed replica per address plus the coordinator.
    Every replica runs {!Engine.default_config}.  Over a simulated
    network, replica CPU capacity is the network's business: price the
    replica addresses with [Kronos_simnet.Net.set_service] and
    {!Kronos_replication.Chain.Replica.service} before deploying.

    Each replica first {e recovers} from its storage (newest snapshot +
    WAL suffix), then logs every applied command; a redeploy over existing
    [durability] storage therefore resumes rather than restarts from
    scratch.  Without [durability] every replica runs the same WAL and
    snapshot path over fresh in-memory storage (default WAL config and
    snapshot window). *)

val crash : cluster -> Kronos_transport.Transport.addr -> unit
(** Crash the replica with the given address (no-op if absent).  Its
    storage survives for {!restart_replica}, unless the cluster runs over
    fresh in-memory storage per start. *)

val join : cluster -> Kronos_transport.Transport.addr -> unit
(** Start a fresh engine-backed replica and integrate it at the tail.  It
    gets its own storage via [storage_of] and recovers from it first, so
    in a cluster deployed with [~durability] "fresh" storage must be
    empty. *)

val restart_replica : cluster -> Kronos_transport.Transport.addr -> unit
(** Restart a crashed replica from its local storage: recover the engine
    (snapshot + WAL replay), re-register on the network and rejoin the
    chain at the tail.  The join announces the recovered sequence number,
    so the predecessor ships only the missing log tail (or a snapshot, if
    that range was already truncated) rather than the full history.  In a
    cluster deployed without [~durability] the storage is fresh, so the
    replica restarts blank and receives the full state by transfer.
    @raise Invalid_argument if the address was never part of the cluster,
    or the replica is still registered. *)

val engine_of : cluster -> Kronos_transport.Transport.addr -> Engine.t option
(** Direct handle on a replica's current engine, for tests and
    experiments. *)

val replica_of :
  cluster -> Kronos_transport.Transport.addr -> Kronos_replication.Chain.Replica.t option
