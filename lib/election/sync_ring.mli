(** Synchronous unidirectional ring engine.

    Executes round-based protocols on a ring of [n] nodes: messages sent in
    round [r] are delivered to the successor at the start of round [r + 1],
    in sending order.  This is the classical synchronous model in which the
    Itai–Rodeh bounds are stated, and the reference model that synchronisers
    simulate.

    Time is measured in rounds; the message count is the number of
    single-hop transmissions. *)

module type PROTOCOL = sig
  type state
  type message
end

module Make (P : PROTOCOL) : sig
  type t

  type context = {
    node : int;
    n : int;
    round : unit -> int;
    rng : Abe_prob.Rng.t;
    send : P.message -> unit;  (** to the ring successor, next round *)
    stop : unit -> unit;
  }

  type handlers = {
    init : context -> P.state;
        (** runs in round 0; may already send *)
    on_round : context -> P.state -> P.message list -> P.state;
        (** one round: the messages the predecessor sent last round,
            in sending order (possibly empty) *)
  }

  val create : seed:int -> n:int -> handlers -> t

  type outcome =
    | Stopped of int     (** a handler called [stop] in this round *)
    | Quiescent of int   (** no messages in flight and none sent *)
    | Round_limit

  val run : ?max_rounds:int -> t -> outcome
  (** Execute rounds until stopped, quiescent, or the limit (default
      [1_000_000]) is reached. *)

  val states : t -> P.state array
  val round : t -> int
  val messages_sent : t -> int
  val messages_per_round : t -> int list
  (** Message count of each executed round, oldest first. *)
end
