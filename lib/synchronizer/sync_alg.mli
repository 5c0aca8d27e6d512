(** Synchronous algorithms, as run by a synchroniser.

    A synchronous algorithm proceeds in pulses: in every pulse a node
    consumes the messages sent to it in the previous pulse and emits
    messages on outgoing links.  The same algorithm can be executed on the
    {!Reference} synchronous engine (ground truth), over the {!Alpha}
    synchroniser (correct on any asynchronous/ABE network, at the Theorem-1
    cost of ≥ n messages per round) or over the timeout-based {!Abd_sync}
    synchroniser (message-free, correct only under a hard delay bound). *)

module type S = sig
  type state
  type message

  val name : string

  val init : node:int -> n:int -> out_degree:int -> rng:Abe_prob.Rng.t -> state

  val pulse :
    node:int ->
    pulse:int ->
    out_degree:int ->
    state ->
    inbox:message list ->
    state * (int * message) list
  (** One pulse: consume last pulse's arrivals, return the new state and the
      messages to send as [(out_link_index, message)] pairs.  Pulses are
      numbered from 1; pulse 1 has an empty inbox. *)

  val pp_state : Format.formatter -> state -> unit
  val pp_message : Format.formatter -> message -> unit
end

(** Synchronous BFS broadcast from node 0.

    Pulse 1: node 0 sends distance 0 to its neighbours.  A node that learns
    its distance in pulse [p] relays [distance + 1] once, in pulse [p + 1].
    The algorithm is deliberately {e sparse}: each node transmits at most
    once per link over the whole execution, so a synchroniser's own message
    cost stands out against the payload. *)
module Bfs : sig
  include S

  val distance : state -> int option
  (** The node's BFS distance from node 0, once known. *)
end

(** Synchronous flooding maximum: every node starts with a token value and
    every pulse sends its current maximum on all links (dense traffic).
    After [diameter] pulses all nodes agree on the global maximum. *)
module Flood_max : sig
  include S

  val current_max : state -> int
  (** Node [i] starts with value [i + 1], so the global maximum is [n]. *)
end
