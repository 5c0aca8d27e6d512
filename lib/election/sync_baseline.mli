(** The runner the synchronous ring baselines share ({!Itai_rodeh},
    {!Chang_roberts}, {!Dolev_klawe_rodeh}): one election on the
    unidirectional {!Abe_net.Topology.ring} of [n] nodes, executed by
    {!Abe_net.Lockstep}.  Each node's out-link 0 leads to its successor.
    Time is measured in rounds; the message count is the number of
    single-hop transmissions. *)

type outcome = {
  elected : bool;
  leader : int option;  (** ring position of the leader; the last if several *)
  leader_count : int;
  rounds : int;         (** synchronous rounds executed *)
  phases : int;         (** election phases used by the leader, 0 if none *)
  messages : int;
}

val pp_outcome : phases:bool -> Format.formatter -> outcome -> unit
(** One report line; [~phases:false] leaves out the phase count of an
    algorithm that has no phases. *)

val identities : seed:int -> int -> int array
(** A seed-determined random permutation of [1..n] (empty if [n <= 0]):
    the unique identifiers of a ring with identities.  It is global setup,
    not node-local randomness, so it does not draw from the nodes'
    streams. *)

module Make (P : sig
  type state
  type message

  val leader_phase : state -> int option
  (** [Some phase] for a leader's state, [None] for any other *)
end) : sig
  include module type of struct
    include Abe_net.Lockstep.Make (P)
  end

  val elect :
    name:string ->
    seed:int ->
    n:int ->
    init:(context -> P.state) ->
    receive:(context -> P.state -> P.message -> P.state) ->
    outcome
  (** One complete election, stopped after 10{^ 6} rounds.  [receive]
      handles one message; a round's messages are handled in arrival
      order, so the state may change between messages of one round.
      Deterministic in [seed].
      @raise Invalid_argument ["<name>.run: n must be >= 2"] *)
end
