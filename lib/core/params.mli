(** ABE network parameters — Definition 1 of the paper.

    An ABE network is an asynchronous network in which three bounds are
    {e known} to the nodes:

    + [delta]: a bound on the {e expected} message delay (the delay itself
      is unbounded);
    + clock-speed bounds [s_low <= s_high] on every local clock;
    + [gamma]: a bound on the expected time to process a local event.

    A {!t} bundles the three; {!admits_delay} / {!admits_processing} check
    that concrete stochastic models respect the declared bounds, which is
    what makes a simulated network an honest ABE network. *)

type t = private {
  delta : float;
  gamma : float;
  clock : Abe_net.Clock.spec;
}

val make : delta:float -> gamma:float -> clock:Abe_net.Clock.spec -> t
(** Validated constructor: [delta > 0], [gamma >= 0]. *)

val default : t
(** [delta = 1], [gamma = 0], perfect clocks — the baseline configuration of
    the experiments. *)

val admits_delay : t -> Abe_net.Delay_model.t -> bool
(** The delay model's expected delay is at most [delta] (up to rounding). *)

val admits_processing : t -> Abe_prob.Dist.t option -> bool
(** The processing-time distribution's mean is at most [gamma]. *)
