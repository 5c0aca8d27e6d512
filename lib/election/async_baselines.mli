(** A baseline election algorithm on the {e ABE network substrate}.

    The synchronous-ring version ({!Itai_rodeh}) measures complexity in the
    model where its classical bound is stated.  This adapter runs the same
    algorithm over {!Abe_net.Network} with random (unbounded, mean-δ)
    delays, drifting clocks and the rest of the ABE semantics, so that the
    reproduction suite compares it with the paper's election on a single
    substrate.  Itai–Rodeh as presented for asynchronous rings requires
    FIFO channels; the adapter enables per-link FIFO delivery (the paper's
    election needs no such assumption — "the order of messages is
    arbitrary between any pair of nodes"). *)

type outcome = {
  elected : bool;
  leader : int option;
  leader_count : int;
  elected_at : float;   (** real simulation time; [nan] if not elected *)
  messages : int;
}

val itai_rodeh :
  ?delay:Abe_net.Delay_model.t ->
  ?limit_time:float ->
  ?limit_events:int ->
  seed:int ->
  n:int ->
  unit ->
  outcome
(** Itai–Rodeh on a unidirectional ABE ring with FIFO links. *)

val pp_outcome : Format.formatter -> outcome -> unit
