(** Drifting local clocks (Definition 1.2 of the paper).

    Each node owns a local clock [C] whose speed relative to real time is a
    constant rate [r] with [s_low <= r <= s_high]:
    [C(t) = r * t + phase].  This satisfies the paper's condition
    [s_low (t2-t1) <= |C(t2) - C(t1)| <= s_high (t2-t1)] exactly.

    Clock {e ticks} happen at integer local times; the election algorithm
    performs its probabilistic wake-up "at every clock tick". *)

type spec = {
  s_low : float;   (** lower bound on clock speed, > 0 *)
  s_high : float;  (** upper bound on clock speed, >= s_low *)
}

val perfect : spec
(** [s_low = s_high = 1]: all clocks run at real-time speed. *)

val spec : s_low:float -> s_high:float -> spec
(** Validated constructor. *)

type t

val create : spec -> rng:Abe_prob.Rng.t -> t
(** Sample a clock: the rate is uniform in [\[s_low, s_high\]] and the
    initial phase uniform in [\[0, 1)] local units, so ticks of different
    nodes are not aligned. *)

val redraw_split :
  t -> spec -> master:Abe_prob.Rng.t -> scratch:Abe_prob.Rng.t -> unit
(** [redraw_split c s ~master ~scratch] draws [c] again in place from the
    stream [Abe_prob.Rng.split master] would return: afterwards [c] is bit
    for bit the clock [create s ~rng:(Abe_prob.Rng.split master)] would
    have returned, [master] has advanced as that split advances it, and
    the call allocates nothing.  Drifting clocks split into [scratch],
    whose contents are then undefined; a perfect clock, which draws only
    its phase, builds no stream at all. *)

val local_time : t -> real:float -> float
(** Local clock reading at the given real time. *)

val next_tick : t -> after:float -> float
(** Real time of the first integer local-clock tick strictly after the given
    real time. *)

val advance_tick : t -> float array -> int -> unit
(** [advance_tick c times i] replaces [times.(i)] with
    [next_tick c ~after:times.(i)].  The same computation in place, so a
    tick chain that keeps its pending instant in a flat array advances it
    without boxing a float across the call. *)
