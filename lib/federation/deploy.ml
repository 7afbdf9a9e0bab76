module Transport = Kronos_transport.Transport
module Server = Kronos_service.Server

type t = {
  router : Router.t;
  clusters : (int * Server.cluster) list;
  endpoints : Router.endpoint list;
  per_shard : int;
}

let replica_base pos = 100 * (pos + 1)
let coordinator_base = 1000
let router_base = 2000

let deploy ~net ?(shards = [ 0; 1 ]) ?(replicas_per_shard = 3) ?service
    ?cache_capacity ?request_timeout ?vnodes ?ping_interval ?failure_timeout
    () =
  if shards = [] then invalid_arg "Deploy.deploy: no shards";
  if replicas_per_shard < 1 then
    invalid_arg "Deploy.deploy: need at least one replica per shard";
  let shards = List.sort_uniq Int.compare shards in
  let clusters, endpoints =
    List.mapi
      (fun pos shard ->
        let coordinator = coordinator_base + pos in
        let replicas =
          List.init replicas_per_shard (fun r -> replica_base pos + r)
        in
        let cluster =
          Server.deploy ~net ~coordinator ~replicas ?service
            ?ping_interval ?failure_timeout ()
        in
        ((shard, cluster), { Router.shard; coordinator }))
      shards
    |> List.split
  in
  let router =
    Router.create ~net ~addr:router_base ~shards:endpoints ?vnodes
      ?cache_capacity ?request_timeout ()
  in
  { router; clusters; endpoints; per_shard = replicas_per_shard }

let cluster_of t shard = List.assoc_opt shard t.clusters

let pos_of t shard =
  let rec go i = function
    | [] -> raise Not_found
    | (s, _) :: _ when s = shard -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.clusters

let replica_addrs t shard =
  match cluster_of t shard with
  | None -> []
  | Some _ ->
    let base = replica_base (pos_of t shard) in
    List.init t.per_shard (fun r -> base + r)

let coordinator_addr t shard = coordinator_base + pos_of t shard

let stats_targets t =
  List.map (fun e -> (e.Router.shard, e.Router.coordinator)) t.endpoints
