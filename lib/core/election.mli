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

    This module is pure: {!tick_decision} and {!receive} are side-effect
    free state transformers, directly testable; the simulation wiring lives
    in {!Runner}. *)

type phase = Idle | Active | Passive | Leader

type state = {
  phase : phase;
  d : int;  (** highest hop count seen, >= 1 *)
}

type message = int
(** A hop counter in [1 .. n]. *)

(** Reaction of a node to an incoming message. *)
type reaction =
  | Forward of message  (** pass [<hop + 1>] to the successor *)
  | Purge               (** swallow the message (collision or orphan) *)
  | Elected             (** own token returned: leader *)

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

val receive : n:int -> state -> message -> state * reaction
(** One message receipt, per the case analysis above.  Requires [n >= 2] and
    [1 <= hop <= n]. *)

val pp_state : Format.formatter -> state -> unit
val pp_message : Format.formatter -> message -> unit
