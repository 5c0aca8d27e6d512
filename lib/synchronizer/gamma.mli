(** Awerbuch's γ synchroniser.

    The network is partitioned into clusters of radius [radius]; each
    cluster runs a β-style convergecast/broadcast on its own spanning tree,
    and adjacent clusters exchange safety information over one designated
    {e preferred link} per cluster pair.  A cluster's nodes advance to the
    next pulse once their own cluster {e and} every adjacent cluster is
    known safe.

    Control cost per pulse: one ack per payload, up to four tree messages
    per intra-cluster tree edge (ready/cluster-safe/done/pulse) and two per
    preferred link — interpolating between {!Alpha} ([radius = 0]: every
    node is a cluster, all traffic crosses preferred links) and {!Beta}
    ([radius >= diameter]: one cluster, pure tree traffic).  Either way the
    total stays Ω(n) per pulse, as Theorem 1 demands.

    Requires a symmetric, connected topology. *)

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
    around the lowest-indexed unclustered node.
    @raise Invalid_argument on a disconnected or asymmetric topology. *)

module Make (A : Sync_alg.S) : sig
  type run = {
    states : A.state array;
    pulses : int;
    payload_messages : int;
    ack_messages : int;
    tree_messages : int;       (** ready + cluster-safe + done + pulse *)
    preferred_messages : int;  (** neighbour-safe over preferred links *)
    control_messages : int;
    control_per_pulse : float;
    clusters : int;
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
    radius:int ->
    unit ->
    run
  (** [scheduler] and [oracle] as in {!Alpha.Make.run}: schedule
      exploration hook and {!Skew} certification probe (bound 1). *)
end
