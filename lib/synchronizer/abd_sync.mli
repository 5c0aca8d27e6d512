(** Timeout-based synchroniser for ABD networks, after Tel, Korach and
    Zaks.

    When a {e hard} bound [D] on the message delay and bounds on clock
    speeds are known, pulses can be generated from local clocks alone: a
    node stays in each pulse for a local-time window [W] large enough that
    every message sent at the start of a neighbour's corresponding pulse
    has arrived before the window closes.  No acknowledgements, no safe
    messages — the synchronisation itself is {e message-free}, so a sparse
    synchronous algorithm keeps its sparseness.

    On an ABE network this recipe is unsound: delays are unbounded, so with
    positive probability a message arrives after its pulse window has
    closed at the receiver.  Such {e late} messages are counted as
    violations (and dropped, modelling the incorrect execution).  Together
    with {!Alpha} this exhibits Theorem 1: correctness on ABE forces ≥ n
    messages per round; staying below that bound forces ABD assumptions.

    Pulse windows are measured in clock ticks: a node advances to the next
    pulse every [window] local ticks.  [run] uses perfect clocks and
    instant processing, and {!required_window} sizes a window for them. *)

module Make (A : Sync_alg.S) : sig
  type run = {
    states : A.state array;
    pulses : int;
    payload_messages : int;   (** all messages — there are no control ones *)
    violations : int;         (** messages that arrived after their pulse *)
    completed : bool;
  }

  val run :
    ?limit_events:int ->
    ?scheduler:Abe_sim.Engine.scheduler ->
    ?oracle:Skew.t ->
    seed:int ->
    topology:Abe_net.Topology.t ->
    delay:Abe_net.Delay_model.t ->
    pulses:int ->
    window:int ->
    unit ->
    run
  (** [scheduler] and [oracle] as in {!Alpha.Make.run} — but certify this
      synchroniser {e without} a skew bound: on ABE delays late arrivals
      (arbitrary skew) are the expected failure mode, not an oracle bug;
      only round monotonicity is guaranteed.  {!Skew.max_skew} still
      reports how far the hard-bound assumption stretched. *)
end

val required_window : hard_bound:float -> int
(** Smallest safe pulse window (in ticks) on perfect clocks for a network
    whose delays are bounded by [hard_bound], covering one tick of initial
    phase skew on each side: [⌈hard_bound + 2⌉ + 1].
    @raise Invalid_argument if [hard_bound] is negative or NaN. *)
