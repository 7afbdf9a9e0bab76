external create : unit -> Unix.file_descr = "kronos_epoll_create"

external ctl : Unix.file_descr -> int -> Unix.file_descr -> int -> unit
  = "kronos_epoll_ctl"

external wait_ns :
  Unix.file_descr -> Unix.file_descr array -> int array -> int -> int
  = "kronos_epoll_wait"

let readable = 0x001
let writable = 0x004
let failed = 0x008 lor 0x010

(* [kronos_epoll_ctl] ops *)
let add = 0
let modify = 1
let delete = 2

let set ep fd ~was mask =
  if mask = 0 then ctl ep delete fd 0
  else ctl ep (if was = 0 then add else modify) fd mask

(* At most a day: the fallback's millisecond count must fit a C int. *)
let wait ep fds evs timeout =
  let ns =
    if timeout < 0.0 then -1
    else int_of_float (Float.ceil (Float.min timeout 86_400.0 *. 1e9))
  in
  wait_ns ep fds evs ns

let wait_writable fd timeout =
  let ep = create () in
  Fun.protect
    ~finally:(fun () -> Unix.close ep)
    (fun () ->
      set ep fd ~was:0 writable;
      wait ep [| fd |] [| 0 |] timeout > 0)
