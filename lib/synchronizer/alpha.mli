(** Awerbuch's α synchroniser.

    Simulates a synchronous algorithm on an asynchronous (or ABE) network.
    In every pulse a node sends its algorithm messages and waits for an
    acknowledgement of each; once all are acknowledged it is {e safe} and
    tells its neighbours so; when all neighbours are safe it advances to the
    next pulse.

    The α synchroniser is correct on {e any} network in which every message
    is eventually delivered — in particular on ABE networks, whose delays
    are unbounded.  Its price is Theorem 1's bound: every node exchanges
    safe messages with all neighbours every pulse, so the network spends at
    least [n] (in fact [2m ≥ n]) control messages per simulated round no
    matter how sparse the algorithm's own traffic is.

    Requires a symmetric topology (acknowledgements travel backwards). *)

module Make (A : Sync_alg.S) : sig
  type run = {
    states : A.state array;
    pulses : int;                (** pulses simulated by every node *)
    payload_messages : int;      (** algorithm messages *)
    ack_messages : int;
    safe_messages : int;
    control_messages : int;      (** acks + safes *)
    control_per_pulse : float;   (** control_messages / pulses *)
    completed : bool;            (** all nodes finished all pulses *)
  }

  val run :
    ?limit_events:int ->
    ?scheduler:Abe_sim.Engine.scheduler ->
    ?oracle:Skew.t ->
    seed:int ->
    topology:Abe_net.Topology.t ->
    delay:Abe_net.Delay_model.t ->
    pulses:int ->
    unit ->
    run
  (** Simulate [pulses] pulses of [A] over the given network.  A
      [scheduler] delegates delivery-order decisions (enabling schedule
      exploration, see {!Abe_sim.Engine}); an [oracle] receives a
      {!Skew.Pulse_entered} event at every pulse transition and a
      {!Skew.Payload_received} at every payload arrival — certify with
      [skew_bound = 1].  Neither perturbs the run.  Processing is instant
      and no node ticks or reads a clock, so [delay] is the run's only
      timing parameter, as in Theorem 1; the same holds for {!Beta} and
      {!Gamma}.
      @raise Invalid_argument if the topology is not symmetric. *)
end
