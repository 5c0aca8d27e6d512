(** Awerbuch's β synchroniser.

    Like {!Alpha}, the β synchroniser simulates a synchronous algorithm on
    an asynchronous/ABE network, but coordinates pulses through a rooted
    spanning tree instead of neighbour gossip: when a node is safe (all its
    payload messages acknowledged) {e and} has received [ready] from all its
    tree children, it reports [ready] to its parent; when the root is ready
    it broadcasts [pulse] down the tree, releasing the next pulse.

    Control cost per pulse: one ack per payload plus [2(n−1)] tree messages
    ([ready] up, [pulse] down) — asymptotically the minimum the Theorem-1
    bound allows, traded against latency proportional to the tree depth.
    The tree is computed centrally from the topology (BFS from node 0);
    distributed tree construction is orthogonal to the synchronisation cost
    the experiment measures.

    Requires a symmetric, connected topology. *)

module Make (A : Sync_alg.S) : sig
  type run = {
    states : A.state array;
    pulses : int;
    payload_messages : int;
    ack_messages : int;
    tree_messages : int;        (** ready + pulse messages *)
    control_messages : int;     (** acks + tree messages *)
    control_per_pulse : float;
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
    unit ->
    run
  (** [scheduler] and [oracle] as in {!Alpha.Make.run}: schedule
      exploration hook and {!Skew} certification probe (bound 1). *)
end
