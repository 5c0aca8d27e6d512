(** Lock-step executor for synchronous rounds on any {!Topology}.

    Every node runs [init] in round 0, then [on_round] once per round with
    the messages sent to it in the previous round.  A message sent in round
    [r] arrives at round [r + 1]; a node's inbox is ordered by sender node,
    then by sending order.  This is the classical synchronous model in
    which the ring baselines' bounds are stated, and the ground truth that
    synchronisers simulate.

    Node [i] draws from the [i]-th {!Abe_prob.Rng.split} of
    [Abe_prob.Rng.create ~seed].  Every node runs every round, in node
    order, whether its inbox is empty or not. *)

module Make (P : sig
  type state
  type message
end) : sig
  type context = {
    node : int;
    round : unit -> int;  (** the round being executed; 0 in [init] *)
    rng : Abe_prob.Rng.t;
    send : int -> P.message -> unit;
        (** [send link m] sends [m] on the node's out-link [link] (an index
            into {!Topology.out_links}) for the next round.
            @raise Invalid_argument if [link] is out of range *)
    stop : unit -> unit;  (** end the run after the current round *)
  }

  type handlers = {
    init : context -> P.state;  (** round 0; may already send *)
    on_round : context -> P.state -> P.message list -> P.state;
  }

  type run = {
    rounds : int;  (** rounds executed after round 0 *)
    states : P.state array;
    messages : int;  (** single-hop transmissions, round 0 included *)
  }

  val run :
    ?max_rounds:int -> seed:int -> topology:Topology.t -> handlers -> run
  (** Execute rounds until a handler has called [stop], until no message
      is in flight, or until [max_rounds] (default [1_000_000]) rounds have
      run, whichever comes first. *)
end
