open Kronos_simnet

let of_net net =
  let sim = Net.sim net in
  let rng = Rng.split (Sim.rng sim) in
  {
    Transport.send = (fun ~src ~dst m -> Net.send net ~src ~dst m);
    register = (fun a h -> Net.register net a h);
    unregister = (fun a -> Net.unregister net a);
    is_registered = (fun a -> Net.is_registered net a);
    now = (fun () -> Sim.now sim);
    schedule =
      (fun ~delay f ->
        let timer = Sim.schedule sim ~delay f in
        Transport.make_timer (fun () -> Sim.cancel timer));
    every =
      (fun ~period f ->
        let timer = Sim.every sim ~period f in
        Transport.make_timer (fun () -> Sim.cancel timer));
    random_int = (fun n -> Rng.int rng n);
    defer = (fun f -> f ());
  }
