(** {!Transport} over the deterministic simulated network.

    Sends, timers and randomness all go through the simulator that owns
    the wrapped {!Kronos_simnet.Net}, so a system built on the resulting
    transport stays fully reproducible under a fixed seed.  Capacity is
    modelled below the transport, on the wrapped network
    ({!Kronos_simnet.Net.set_service}), so the processes registered through
    it are the same code that runs over TCP. *)

val of_net : 'm Kronos_simnet.Net.t -> 'm Transport.t
(** The adapter draws one RNG stream (split from the simulator's root RNG
    at wrap time) that is shared by everything using this transport
    value. *)
