(** Least-squares fits and growth-shape classification.

    Used by the experiment harness to check the paper's complexity claims:
    e.g. that the average message count of the election algorithm grows
    {e linearly} in the ring size, whereas comparison algorithms grow like
    [n log n]. *)

type line = {
  intercept : float;
  slope : float;
  r2 : float;  (** coefficient of determination *)
}

val linear : (float * float) array -> line
(** Ordinary least squares [y = intercept + slope * x].
    Requires at least two points with distinct [x]. *)

val proportional : (float * float) array -> line
(** Least squares through the origin, [y = slope * x] (intercept fixed
    at 0); [r2] is computed against the mean-centred total sum of
    squares. *)

val loglog : (float * float) array -> line
(** Least squares on [(log x, log y)]: [slope] is the power-law exponent
    [beta] in [y ~ x^beta] — the noise-robust way to distinguish linear
    ([beta ~ 1]) from super-linear growth.  Requires positive data. *)

type growth = Constant | Logarithmic | Linear | Linearithmic | Quadratic

val pp_growth : Format.formatter -> growth -> unit

val classify_growth : (float * float) array -> growth
(** [classify_growth points] fits [y] against [1], [log x], [x],
    [x log x] and [x²] (each by proportional least squares on the
    transformed abscissa, with an intercept) and returns the model with the
    smallest residual sum of squares.  Points must have [x >= 2]. *)
