(** Message-delay models: the knob that separates ABD, ABE and plain
    asynchronous networks.

    - An {b ABD} model has a known {e hard} bound [D] on every delay
      (bounded support).
    - An {b ABE} model (this paper) has a known bound [δ] on the {e expected}
      delay; individual delays may be arbitrarily large.
    - Every model here has finite mean, hence every model is ABE-admissible;
      only bounded-support ones are ABD-admissible.

    A model can additionally carry {e episodes}: time windows during which
    sampled delays are multiplied by a factor.  Episodes model transient
    congestion (delay spikes, heavy-tail bursts) for fault injection — see
    {!Faults} — and are deliberately outside the admissibility story: an
    episodic model is treated as plain ABE. *)

type episode = {
  e_start : float;  (** inclusive, in simulation time *)
  e_stop : float;   (** exclusive *)
  factor : float;   (** multiplier applied to sampled delays *)
}

type t

val of_dist : Abe_prob.Dist.t -> t
(** Wrap any delay distribution (no episodes). *)

val abe_exponential : delta:float -> t
(** Canonical ABE delay: exponential with mean [delta] (unbounded). *)

val abe_retransmission : success:float -> slot:float -> t
(** Section 1(iii): lossy channel with per-attempt success probability;
    expected delay [slot /. success]. *)

val abd_uniform : bound:float -> t
(** Canonical ABD delay: uniform on [\[0, bound\]]. *)

val abd_deterministic : delay:float -> t

val modulated : t -> episodes:episode array -> t
(** [modulated t ~episodes] overlays delay episodes on [t] (sorted by start
    time; when episodes overlap, the latest-starting one wins).  This
    constructor is deliberately lenient — episodes are {e not} checked here,
    so an invalid scenario can be built and must be rejected by {!validate}
    (which {!Links.create} applies to every link). *)

val validate : t -> unit
(** Full validation: the base distribution ({!Abe_prob.Dist.validate}) plus
    every episode (finite non-negative start, finite stop after start,
    finite positive factor).  Raises [Invalid_argument] on the first
    problem. *)

val episodes : t -> episode array
val dist : t -> Abe_prob.Dist.t

val sample_at : t -> now:float -> Abe_prob.Rng.t -> float
(** [sample_at t ~now rng] draws a base delay and multiplies it by the
    factor of the latest-starting episode containing [now] (1.0 outside
    all episodes).  With no episodes this consumes exactly the same RNG
    stream and returns exactly the same value as a draw from {!dist}. *)

val expected_delay : t -> float
(** The δ of Definition 1.1 (of the base distribution). *)

val hard_bound : t -> float option
(** The D of an ABD network, when one exists (base distribution only). *)

val pp : Format.formatter -> t -> unit
(** Prefixed ["ABD"] when the base distribution has bounded support and
    there are no episodes, ["ABE"] otherwise. *)
