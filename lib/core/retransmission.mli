(** The unreliable-channel model of Section 1(iii).

    A physical channel loses or corrupts each transmission independently;
    a transmission succeeds with probability [p].  The sender keeps
    retransmitting until success, so the number of attempts is geometric
    with mean [1/p] and the message delay — while {e unbounded} — has
    expected value [slot/p].  This is the canonical network that is ABE but
    not ABD, and experiment E1 checks the measured means against
    {!Analysis.k_avg}.

    {!run_batch} samples each message's attempt count either analytically
    or, with [~arq:true], through an explicit stop-and-wait ARQ
    sender/receiver pair driven by the discrete-event engine (lossy data
    frames, a one-slot timeout, retransmission), exercising the same
    machinery the network substrate uses.  The two coincide in
    distribution. *)

type batch = {
  p : float;
  messages : int;
  attempts : Abe_prob.Stats.summary;
  delay : Abe_prob.Stats.summary;
  predicted_attempts : float;  (** [1/p] *)
  predicted_delay : float;     (** [slot/p] *)
}

val run_batch :
  ?arq:bool -> seed:int -> p:float -> slot:float -> messages:int -> unit -> batch
(** Send [messages] messages and summarise.  [arq = true] uses the
    event-driven path (default [false]).  The [delay] of a message is the
    time from its first transmission to its successful receipt:
    [slot * attempts] either way. *)

val delay_model : p:float -> slot:float -> Abe_net.Delay_model.t
(** The corresponding per-link delay model, for plugging the lossy channel
    into whole-network experiments. *)
