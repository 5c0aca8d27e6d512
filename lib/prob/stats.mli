(** Running statistics, quantiles and confidence intervals.

    {!t} is a mutable accumulator using Welford's numerically stable
    algorithm; it keeps mean and variance without storing samples.
    {!Reservoir} additionally keeps all samples, enabling quantiles. *)

type t
(** Mutable moment accumulator. *)

val create : unit -> t
val add : t -> float -> unit
val mean : t -> float
(** Mean of the samples seen so far; [nan] if empty. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** unbiased; [0.] with fewer than two samples *)
  std_error : float;  (** of the mean, [stddev /. sqrt n] *)
  ci95_half_width : float;  (** half-width of the 95% confidence interval *)
  min : float;
  max : float;
}

val summary : t -> summary
val pp_summary : Format.formatter -> summary -> unit

val ci95_half_width : t -> float
(** Half-width of a 95% confidence interval for the mean, using a Student-t
    critical value for small sample counts and the normal approximation for
    large ones: the two-sided critical value for [df] degrees of freedom
    is interpolated from a table, strictly decreasing in [df] and
    continuous past the last row (interpolating in [1/df] toward the
    normal limit 1.96). *)

(** Sample-retaining accumulator with quantiles. *)
module Reservoir : sig
  type r

  val create : unit -> r
  val add : r -> float -> unit
  val mean : r -> float
  val quantile : r -> float -> float
  (** [quantile r q] for [q] in [\[0,1\]], by linear interpolation on the
      sorted samples.  [nan] if empty. *)

  val median : r -> float
  val samples : r -> float array
  (** Copy of the samples, in insertion order. *)
end

(** Fixed-bin histogram on a [\[lo, hi)] range with overflow/underflow
    buckets. *)
module Histogram : sig
  type h

  val create : lo:float -> hi:float -> bins:int -> h
  val add : h -> float -> unit
  val counts : h -> int array
  val pp : Format.formatter -> h -> unit
  (** One line per bin with its bounds and count, then the underflow and
      overflow counts when non-zero. *)
end
