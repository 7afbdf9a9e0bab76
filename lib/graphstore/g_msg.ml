open Kronos

type vop =
  | Add_vertex
  | Add_edge of int
  | Remove_edge of int

type request =
  | K_update of { event : Event_id.t; vertex : int; op : vop }
  | K_neighbors of { event : Event_id.t; vertices : int list }
  | L_lock of { txn : int; vertex : int; write : bool }
  | L_unlock_all of { txn : int }
  | L_update of { vertex : int; op : vop }
  | L_neighbors of { vertices : int list }

type response =
  | K_update_done
  | K_neighbors_are of (int * int list) list
  | L_granted
  | L_lock_timeout
  | L_update_done
  | L_unlocked
  | L_neighbors_are of (int * int list) list

type msg =
  | Request of { client : Kronos_simnet.Net.addr; req_id : int; body : request }
  | Response of { req_id : int; body : response }

let pp_vop ppf = function
  | Add_vertex -> Format.pp_print_string ppf "add_vertex"
  | Add_edge v -> Format.fprintf ppf "add_edge(%d)" v
  | Remove_edge v -> Format.fprintf ppf "remove_edge(%d)" v

let service cost = function
  | Request { body; _ } -> Some (cost body)
  | Response _ -> Some 0.0

let pp_request ppf = function
  | K_update { vertex; op; _ } ->
    Format.fprintf ppf "k_update(%d,%a)" vertex pp_vop op
  | K_neighbors { vertices; _ } ->
    Format.fprintf ppf "k_neighbors(%d vertices)" (List.length vertices)
  | L_lock { txn; vertex; write } ->
    Format.fprintf ppf "l_lock(t%d,%d,%s)" txn vertex (if write then "w" else "r")
  | L_unlock_all { txn } -> Format.fprintf ppf "l_unlock_all(t%d)" txn
  | L_update { vertex; op } -> Format.fprintf ppf "l_update(%d,%a)" vertex pp_vop op
  | L_neighbors { vertices } ->
    Format.fprintf ppf "l_neighbors(%d vertices)" (List.length vertices)
