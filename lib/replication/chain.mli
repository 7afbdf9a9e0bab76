(** Chain replication (van Renesse & Schneider, OSDI'04) over the simulated
    network, replicating an arbitrary deterministic state machine whose
    commands and responses are byte strings.

    Topology and roles:
    - writes enter at the {e head}, which assigns sequence numbers, applies
      the command, and forwards down the chain; the {e tail} applies and
      replies to the client, then acknowledges back up the chain so
      predecessors can drop their pending entries;
    - reads may be served locally by {e any} replica ([Client_read]); the
      Kronos service layer exploits this for stale-replica queries
      (Section 2.5 of the paper) because monotonicity makes ordered answers
      from stale replicas indistinguishable from tail answers;
    - a {e coordinator} process (standing in for the coordination service of
      Section 2.4, e.g. ZooKeeper/Chubby) pings replicas, removes silent
      ones from the chain, broadcasts new configurations, and integrates
      fresh replicas at the tail with full state transfer.

    Failure handling follows the standard protocol: on reconfiguration a
    replica that gained a new successor re-sends its unacknowledged pending
    entries (duplicates are discarded by sequence number); a replica that
    became tail replies to the clients of its pending entries.  A client's
    retransmission of a write the head has already sequenced is answered
    by the tail, or by the head itself once an Ack has covered it: every
    replica has then applied and committed it, while a tail that joined
    by snapshot holds no reply below that snapshot.

    {b Durability.}  Every replica keeps its history through
    {!Replica.persist} hooks, which the service layer wires to the
    [kronos_durability] WAL/snapshot layer (over real files or in-memory
    storage); the chain holds no command log of its own.  Every applied
    command is logged at its sequence number and group-committed once per
    transport dispatch pass ({!Kronos_transport.Transport.defer}),
    covering every command the pass applied, and a periodic snapshot lets
    old log segments be truncated.
    State transfer adapts to what the joining replica already has
    (announced in [New_config]) and has two sources: the log tail above
    the joiner's sequence number when the log still holds it, otherwise a
    snapshot plus the log above it, instead of a replay of the entire
    history.  A receiver applies transferred entries only in sequence
    order; entries past a gap wait for the missing ones. *)

type addr = Kronos_transport.Transport.addr

type config = { version : int; chain : addr list }

(** Messages exchanged by proxies, replicas and the coordinator. *)
type msg =
  | Client_write of { client : addr; req_id : int; cmd : string }
  | Client_read of { client : addr; req_id : int; cmd : string }
  | Forward of { seq : int; client : addr; req_id : int; cmd : string }
  | Ack of { seq : int }
  | Reply of { req_id : int; resp : string }
  | Get_config of { client : addr }
  | Config_is of config
  | New_config of { config : config; fresh : (addr * int) option }
      (** [fresh] identifies a joining replica and the sequence number it
          has already applied (0 for a blank one), so its predecessor can
          ship the smallest sufficient state transfer *)
  | Ping
  | Pong of { last_applied : int }
  | Sync_state of { entries : (int * addr * int * string) list }
      (** (seq, client, req_id, cmd) log suffix for a joining replica *)
  | Sync_snapshot of {
      seq : int;
      snapshot : string;
      entries : (int * addr * int * string) list;
    }
      (** encoded engine snapshot as of [seq] plus the log entries above
          it, for a joining replica whose missing range was truncated *)
  | Join of { addr : addr; last_applied : int }
      (** a replica (possibly in another process) asking the coordinator to
          integrate it at the tail; idempotent, so joiners may retry it *)
  | Get_stats of { client : addr }
      (** admin plane: ask a replica or the coordinator for a snapshot of
          its process-wide metrics registry; answered even by replicas
          removed from the chain, like [Ping] *)
  | Stats_is of { samples : (string * float) list }
      (** flat [(series, value)] snapshot from [Kronos_metrics.samples] *)

(** {1 Chain position helpers} *)

val head_of : config -> addr option
val successor_of : config -> addr -> addr option
val predecessor_of : config -> addr -> addr option
val is_tail : config -> addr -> bool

(** {1 Replicas} *)

module Replica : sig
  type t

  (** Hooks connecting a replica to its local durability layer, which is
      also its only record of past commands.  The chain stays generic over
      the hosted state machine: it calls these at the protocol points where
      persistence matters and never interprets the snapshot bytes. *)
  type persist = {
    log_entry : seq:int -> client:addr -> req_id:int -> cmd:string -> unit;
        (** called after each command is applied, in sequence order *)
    commit : upto:int -> unit;
        (** the group-commit point (WAL flush, snapshot cadence, segment
            truncation live behind this): deferred through
            {!Kronos_transport.Transport.defer} by a message that applied
            at least one command, at most once per dispatch pass, with
            [upto] the last sequence number applied when it runs.  Replies,
            acks and forwards the pass queued leave after it. *)
    snapshot : upto:int -> int * string;
        (** a snapshot [(seq, bytes)] for a state transfer that [tail]
            cannot serve: the newest local snapshot when the log still
            holds every entry above it, otherwise the current state
            machine encoded at [upto], the last applied sequence number *)
    tail : since:int -> (int * addr * int * string) list option;
        (** logged entries with [seq > since]; [None] once truncation has
            removed part of that range *)
    install : seq:int -> string -> unit;
        (** replace the local state machine with a received snapshot (and
            persist it, so a later restart recovers from it) *)
  }

  val create :
    net:msg Kronos_transport.Transport.t ->
    addr:addr ->
    apply:(string -> string) ->
    ?read_async:
      (client:addr ->
       req_id:int ->
       cmd:string ->
       reply:(string -> unit) ->
       bool) ->
    ?config:config ->
    ?service:float ->
    persist:persist ->
    unit ->
    t
  (** Create a replica and register it on the network.  [apply] must be
      deterministic, and [persist] must start empty or hold exactly what
      {!restore} is told about.  [config] seeds the initial chain configuration (all
      replicas and the coordinator must agree on it).

      [read_async] offloads local reads ([Client_read]): when it returns
      [true] it has taken ownership and will call [reply] exactly once,
      possibly later and possibly computed on another domain (the
      multicore query plane, DESIGN.md §14); [false] — or no hook — serves
      the read synchronously through [apply].  Only reads go through it;
      replicated writes always apply in sequence on the owning thread.

      [service] models the replica's CPU: each non-heartbeat message
      occupies the server for that many virtual seconds.  Service-time
      modelling needs a simulator, so it raises [Invalid_argument] over a
      transport whose [sim] is [None]. *)

  val restore :
    t ->
    last_applied:int ->
    entries:(int * addr * int * string) list ->
    unit
  (** Pre-load recovered state into a freshly created, not-yet-joined
      replica: set its applied sequence number and re-seed the reply table
      (keyed by client and request id, it both deduplicates and re-answers
      retransmissions) from replayed entries ((seq, client, req_id, resp),
      ascending).  Only the replayed WAL
      suffix is available after a restart; earlier history lives in the
      snapshot the engine was restored from. *)

  val addr : t -> addr
  val last_applied : t -> int
  val config : t -> config
  val pending_count : t -> int

  val snapshot_installs : t -> int
  (** Number of [Sync_snapshot] transfers this replica has installed (0
      when every join was satisfied by a log tail). *)

  val is_removed : t -> bool
  (** The coordinator announced a configuration without this replica; it
      drops all traffic and must be restarted to rejoin. *)

  val announce_join : t -> coordinator:addr -> unit
  (** Send a {!msg.Join} to a (possibly remote) coordinator, announcing the
      already-applied sequence number.  Safe to retry until the replica
      appears in {!config}. *)

  val crash : t -> unit
  (** Unregister from the network; in-flight and future messages drop. *)
end

(** {1 Log-entry payloads}

    The byte format used when a chain entry is stored in a WAL record:
    client address, request id and command, so a restart can rebuild the
    reply table that deduplicates and re-answers retransmissions. *)

val encode_entry_payload : client:addr -> req_id:int -> cmd:string -> string

val decode_entry_payload : string -> addr * int * string
(** @raise Kronos_wire.Codec.Decode_error on malformed bytes. *)

(** {1 Coordinator} *)

module Coordinator : sig
  type t

  val create :
    net:msg Kronos_transport.Transport.t ->
    addr:addr ->
    chain:addr list ->
    ?ping_interval:float ->
    ?failure_timeout:float ->
    unit ->
    t
  (** Start the coordinator.  It immediately broadcasts the initial
      configuration and begins pinging replicas.  A replica missing
      [failure_timeout] seconds of pongs (default 1.0) is removed from the
      chain. *)

  val addr : t -> addr
  val config : t -> config

  val join : t -> Replica.t -> unit
  (** Integrate a replica at the tail.  The broadcast announces the
      replica's already-applied sequence number (non-zero when it recovered
      from local storage), and the current tail ships only what is missing:
      a log tail, or — if that range was truncated — its latest snapshot
      plus the log above it. *)
end
