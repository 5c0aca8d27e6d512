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

val first_tick : t -> float array -> float array -> int -> unit
(** [first_tick c times locals i] replaces [times.(i)] with the real time
    of the first integer local-clock tick strictly after it, and sets
    [locals.(i)] to that integer: the next integer above the clock's
    reading at [times.(i)], or the one after it where rounding maps that
    integer back onto [times.(i)] itself.  The general rule, for a chain's
    first tick.  The instants travel in flat arrays, so no float is boxed
    across the call. *)

val step_tick : t -> float array -> float array -> int -> unit
(** [step_tick c times locals i], where [times.(i)] is the tick of
    integer local reading [locals.(i)] (as {!first_tick} or [step_tick]
    left them), moves both to the next tick: reading [k + 1] at real time
    [(k + 1 - phase) / rate].  The result is bit for bit what
    {!first_tick} gives from [times.(i)].  Rounding keeps the clock's
    reading at the tick of [k] within half a unit of [k] while
    [k + 1 < 2^50], so the general rule's floor reads [k - 1] or [k], and
    both of its branches then land on [k + 1], provided that instant is
    strictly after the tick of [k].  Where either condition fails — local
    readings near 2^52, where consecutive integers stop mapping to
    distinct instants — [step_tick] falls back to {!first_tick}.  It
    allocates nothing, pays no [floor] and, in a release build, inlines
    into its caller. *)
