type addr = int

type timer = { cancel : unit -> unit }

type 'm t = {
  send : src:addr -> dst:addr -> 'm -> unit;
  register : addr -> (src:addr -> 'm -> unit) -> unit;
  unregister : addr -> unit;
  is_registered : addr -> bool;
  now : unit -> float;
  schedule : delay:float -> (unit -> unit) -> timer;
  every : period:float -> (unit -> unit) -> timer;
  random_int : int -> int;
  defer : (unit -> unit) -> unit;
  sim : Kronos_simnet.Sim.t option;
}

let send t ~src ~dst m = t.send ~src ~dst m
let register t a h = t.register a h
let unregister t a = t.unregister a
let is_registered t a = t.is_registered a
let now t = t.now ()
let schedule t ~delay f = t.schedule ~delay f
let every t ~period f = t.every ~period f
let random_int t n = t.random_int n
let defer t f = t.defer f
let sim t = t.sim

let cancel timer = timer.cancel ()
let make_timer cancel = { cancel }
