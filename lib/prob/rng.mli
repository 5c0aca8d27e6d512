(** Deterministic, splittable pseudo-random number generator.

    The generator is xoshiro256++ seeded through SplitMix64, giving
    high-quality 64-bit output streams that are fully reproducible from an
    integer seed.  Reproducibility is essential for the simulation harness:
    every experiment records its seed, and re-running with the same seed
    replays the exact execution.

    [split] derives a statistically independent generator; it is used to give
    every node, channel and clock of a simulated network its own stream, so
    that the random choices of one component do not perturb another when the
    network layout changes. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator deterministically from [seed]. *)

val copy : t -> t
(** [copy t] is a generator with identical state; both produce the same
    subsequent stream. *)

val split : t -> t
(** [split t] advances [t] and returns a fresh generator whose stream is
    independent of the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val unit_float : t -> float
(** Uniform float in [\[0,1)] with 53 bits of precision. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)].  [bound] must be positive
    and finite. *)

val float_range : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)].  Requires [lo < hi]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)] without modulo bias.
    Requires [0 < bound]. *)

val int_range : t -> lo:int -> hi:int -> int
(** Uniform integer in [\[lo, hi\]] (inclusive).  Requires [lo <= hi]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p].  Requires
    [0. <= p <= 1.]. *)

val bernoulli_at : t -> float array -> int -> bool
(** [bernoulli_at t probs i] is [bernoulli t probs.(i)], the same draw
    with [p] read from the caller's flat array, so that a table lookup
    feeds the coin without boxing a float across the call. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean ([mean > 0]). *)

val geometric : t -> p:float -> int
(** [geometric t ~p] is the number of Bernoulli([p]) trials up to and
    including the first success (support [{1, 2, ...}], mean [1/p]).
    Requires [0 < p <= 1]. *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian sample via Box–Muller.  Requires [sigma >= 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element.  Requires a non-empty array. *)
