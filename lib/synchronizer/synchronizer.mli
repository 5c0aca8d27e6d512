(** Synchronisers: a synchronous algorithm ({!Sync_alg.S}) run on an
    asynchronous (or ABE) network, pulse by pulse.

    Every kind shares one frame.  In each pulse a node consumes the
    payloads of the previous pulse, sends its algorithm's payloads and
    buffers arrivals for the pulse they belong to; the kinds differ only in
    the rule that decides when a node may enter the next pulse:

    - {b γ} (Awerbuch): the network is partitioned into clusters of the
      given radius ({!cluster}).  Each payload is acknowledged; a node is
      {e ready} once its payloads are acknowledged and its cluster-tree
      children are ready; the cluster root then declares the cluster safe
      down its tree and across one {e preferred link} per adjacent cluster
      pair; once a cluster and all its neighbours are safe, its root
      releases the next pulse down the tree.  Control cost per pulse: one
      ack per payload, up to four tree messages per tree edge and two per
      preferred link.
    - {b α} is γ at radius 0: every node is its own cluster, so every node
      exchanges safe messages with all its neighbours each pulse — [2m ≥ n]
      control messages per pulse however sparse the algorithm's traffic.
    - {b β}: one cluster, a BFS tree from node 0, whose root releases the
      next pulse as soon as the whole tree reports ready — [2(n−1)] tree
      messages per pulse, the cheapest correct option, traded against
      latency proportional to the tree depth.
    - {b ABD} (timeout-based, after Tel, Korach and Zaks): no control
      messages at all.  Nodes tick on perfect clocks and advance every
      [window] local ticks, which is enough when a {e hard} delay bound is
      known ({!required_window}).  On ABE delays, which are unbounded, a
      payload can arrive after its receiver left its pulse; such payloads
      are counted as violations and dropped, modelling the incorrect
      execution.

    α, β and γ are correct on any network whose messages are all
    delivered, ABE included, at Theorem 1's price of at least [n] messages
    per round; ABD stays below it only by relying on the hard bound ABE
    networks break.  The message-driven kinds need a symmetric topology
    (acknowledgements travel backwards), β a connected one.  Processing is
    instant and only ABD nodes tick, so [delay] is a run's only timing
    parameter, as in Theorem 1. *)

type kind =
  | Alpha
  | Beta
  | Gamma of int  (** cluster radius *)
  | Abd of int    (** pulse window, in ticks *)

val name : kind -> string
(** ["alpha"], ["beta"], ["gamma"] or ["abd"]. *)

type clustering = {
  cluster_of : int array;          (** node -> cluster id *)
  cluster_count : int;
  tree_parent : int array;         (** within-cluster tree; -1 at roots *)
  tree_children : int array array;
  preferred : (int * int) list;    (** one undirected link per adjacent
                                       cluster pair, as node pairs *)
}

val cluster : Abe_net.Topology.t -> radius:int -> clustering
(** Greedy BFS ball clustering: repeatedly grow a ball of the given radius
    around the lowest-indexed unclustered node.  Each connected component
    is clustered on its own.
    @raise Invalid_argument on a negative radius or an asymmetric
    topology. *)

val required_window : hard_bound:float -> int
(** Smallest safe ABD pulse window (in ticks) on perfect clocks for a
    network whose delays are bounded by [hard_bound], covering one tick of
    initial phase skew on each side: [⌈hard_bound + 2⌉ + 1].
    @raise Invalid_argument if [hard_bound] is negative or NaN. *)

module Make (A : Sync_alg.S) : sig
  type run = {
    states : A.state array;
    pulses : int;                (** pulses simulated by every node *)
    payload : int;               (** algorithm messages *)
    acks : int;
    tree : int;
        (** ready, cluster-safe, done and pulse messages along cluster
            trees *)
    preferred : int;             (** neighbour-safe messages (α: all) *)
    clusters : int;              (** α: [n]; β: 1; ABD: 0 *)
    violations : int;            (** payloads that arrived after their pulse *)
    completed : bool;            (** all nodes finished all pulses *)
    control_per_pulse : float;   (** (acks + tree + preferred) / pulses *)
  }

  val run :
    ?limit_events:int ->
    ?scheduler:Abe_sim.Engine.scheduler ->
    ?oracle:Skew.t ->
    seed:int ->
    topology:Abe_net.Topology.t ->
    delay:Abe_net.Delay_model.t ->
    pulses:int ->
    kind ->
    run
  (** Simulate [pulses] pulses of [A] under the given synchroniser.  A
      [scheduler] delegates delivery-order decisions (enabling schedule
      exploration, see {!Abe_sim.Engine}); an [oracle] receives a
      {!Skew.Pulse_entered} event at every pulse transition and a
      {!Skew.Payload_received} at every payload arrival.  Certify α, β and
      γ with [skew_bound = 1]; certify ABD {e without} a bound, since on
      ABE delays late arrivals are its expected failure mode (only round
      monotonicity is guaranteed).  Neither perturbs the run.
      @raise Invalid_argument if [pulses < 1], an ABD window is below 1,
      or the topology does not suit the kind. *)
end
