(** The paper's leader-election algorithm for anonymous, unidirectional ABE
    rings of known size [n] (Section 3).

    Every node is in one of four phases and stores a hop-count watermark
    [d >= 1] (initially 1).  Messages are bare hop counters.

    - An {e idle} node, at every local clock tick, becomes {e active} with
      probability [1 - (1 - a0) ** d] and then sends [<1>] to its
      successor.
    - On receiving [<hop>], a node first raises [d] to [max d hop] — the
      watermark only feeds the activation probability, never the forwarded
      counter; then
      {ul
      {- idle: if [hop = n] the token is an orphan that circumnavigated
         after its origin was knocked out — purge it (and stay idle);
         otherwise become {e passive} and forward [<hop + 1>];}
      {- passive: purge an orphan [hop = n] token, otherwise forward
         [<hop + 1>];}
      {- active: if [hop = n] the message is the node's own token that
         circumnavigated the ring — become {e leader}; otherwise two
         concurrent tokens collided — purge the message and fall back to
         {e idle};}
      {- leader: ignore (cannot happen in a well-formed execution).}}

    The forwarded counter is always [hop + 1], so a token's hop count
    equals the links it has traversed — the {e hop-soundness} invariant
    the runner's oracle checks.  (An earlier version forwarded
    [max d hop + 1], which let a stale watermark teleport a token's count
    to [n] without circumnavigation: a false-leader path.)

    Since [d - 1] counts known-passive predecessors, the wake-up probability
    [1 - (1-a0)^d] keeps the {e aggregate} activation rate of the ring
    roughly constant as nodes get knocked out — the key to linear average
    time and message complexity.

    This module is pure: {!tick_decision}, {!receive} and {!reaction} are
    side-effect free, directly testable; the simulation wiring lives in
    {!Runner}, which applies {!receive} and {!reaction} to every token for
    both backends. *)

type phase = Idle | Active | Passive | Leader

type state = {
  phase : phase;
  d : int;  (** highest hop count seen, >= 1 *)
}

type message = int
(** A hop counter in [1 .. n]. *)

(** What a receipt does with the message.  A forward always carries
    [<hop + 1>], so the reaction names no counter, and like a state it is an
    immediate value: a receipt allocates nothing for it. *)
type reaction =
  | Forward  (** pass [<hop + 1>] to the successor *)
  | Purge    (** swallow the message (collision or orphan) *)
  | Elected  (** own token returned: leader *)

type rule
(** The receipt rule on a ring of known size [n], with one shared passive
    state per watermark [d] in [1 .. n].  Built once per configuration;
    immutable, so any number of runs and domains may share it. *)

val rule : n:int -> rule
(** @raise Invalid_argument unless [n >= 2]. *)

val initial : state
(** [{ phase = Idle; d = 1 }]. *)

val activation_probability : a0:float -> d:int -> float
(** [1. -. (1. -. a0) ** d].  Requires [a0] in [(0,1)] and [d >= 1]. *)

val tick_decision : a0:float -> rng:Abe_prob.Rng.t -> state -> state * bool
(** One clock tick.  For an idle node, flips the activation coin: on success
    the node becomes active and must send [<1>] ([true] in the result).
    Non-idle nodes are unchanged ([false]).  The simulator and the real
    backend make the same draw through {!Runner.on_tick}, with the
    probability looked up in a per-configuration table; this function is
    the reference that tests compare it against. *)

val receive : rule -> state -> message -> state
(** The receiver's state after one message receipt, per the case analysis
    above.  Allocation-free on every forward: a node knocked out or kept
    passive gets the rule's shared passive record for its watermark, and
    a receipt that leaves the watermark where it was returns the state it
    was given.  Only a purge at an active node, an election and an orphan
    that raises an idle node's watermark build a new record.
    @raise Invalid_argument unless [1 <= hop <= n]. *)

val reaction : rule -> state -> message -> reaction
(** What the same receipt does with the message, read from the state
    {e before} it: an idle or passive node forwards unless [hop = n]
    (an orphan, purged), an active node is elected by [hop = n] and purges
    any other token, a leader purges.
    @raise Invalid_argument unless [1 <= hop <= n]. *)

val pp_state : Format.formatter -> state -> unit
val pp_message : Format.formatter -> message -> unit
