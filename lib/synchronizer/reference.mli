(** Reference synchronous executor: runs a {!Sync_alg.S} on an arbitrary
    topology in perfect lockstep, on {!Abe_net.Lockstep}.  This is the
    ground truth that synchronisers must reproduce. *)

module Make (A : Sync_alg.S) : sig
  type run = {
    states : A.state array;  (** node states after the last pulse *)
    payload_messages : int;  (** total algorithm messages *)
  }

  val run : seed:int -> topology:Abe_net.Topology.t -> pulses:int -> run
  (** Execute [pulses] pulses, or fewer once no message is in flight:
      {!Sync_alg.S} requires that the remaining pulses would change
      nothing. *)
end
