(** One-sample Kolmogorov–Smirnov goodness-of-fit test.

    Used to validate the samplers against their analytic CDFs (and, in
    user code, to check whether an empirical delay trace is compatible with
    a modelled distribution).  Valid for {e continuous} distributions; for
    step CDFs (deterministic, geometric retransmission) the test is
    conservative. *)

val statistic : samples:float array -> cdf:(float -> float) -> float
(** The KS statistic [D_n = sup_x |F_n(x) - F(x)|] (both one-sided
    deviations are considered).  [samples] need not be sorted; it must be
    non-empty.  [cdf] must be a proper CDF (monotone, into [\[0,1\]]). *)

val critical_value : n:int -> alpha:float -> float
(** Asymptotic critical value [c(alpha) / sqrt n] with
    [c(0.10) = 1.224], [c(0.05) = 1.358], [c(0.01) = 1.628].
    Only these three levels are supported. *)

type verdict = {
  d_statistic : float;
  threshold : float;
  accept : bool;  (** [d_statistic <= threshold] *)
}

val test_dist :
  samples:float array -> dist:Dist.t -> alpha:float -> verdict option
(** Convenience wrapper testing against {!Dist.cdf}; [None] when the
    distribution has no closed-form CDF. *)
