(** Delay distributions with analytic moments.

    A {!t} describes a non-negative random delay.  Every constructor
    validates its parameters, and the analytic {!mean} (and {!variance},
    where it exists) is available so that experiments can build families of
    distributions with a {e common} expected value — the defining knob of the
    ABE network model, where only a bound on the expected delay is known.

    Distributions with unbounded support (exponential, Lomax,
    geometric retransmission, hyper-exponential) model ABE-but-not-ABD
    delays; bounded-support distributions (deterministic, uniform) model ABD
    delays. *)

type t =
  | Deterministic of float
      (** Always the given value (>= 0). *)
  | Uniform of { lo : float; hi : float }
      (** Uniform on [\[lo, hi\]], [0 <= lo < hi]. *)
  | Exponential of { mean : float }
      (** Exponential with the given mean (> 0); unbounded support. *)
  | Erlang of { shape : int; mean : float }
      (** Sum of [shape] iid exponential stages with total mean [mean]. *)
  | Hyperexponential of { branches : (float * float) array }
      (** Mixture of exponentials: [(weight, mean)] pairs; weights sum to 1.
          High squared coefficient of variation — bursty delays. *)
  | Lomax of { alpha : float; scale : float }
      (** Pareto type II (heavy tail).  Mean [scale /. (alpha -. 1.)]
          requires [alpha > 1]. *)
  | Retransmission of { success : float; slot : float }
      (** Section 1(iii) of the paper: each transmission attempt takes
          [slot] time and succeeds with probability [success]; the delay is
          [slot * number_of_attempts] where the attempt count is
          geometric.  Mean [slot /. success]; unbounded support. *)

val validate : t -> unit
(** @raise Invalid_argument if any parameter is out of range. *)

(** {1 Smart constructors} (validated) *)

val deterministic : float -> t
val uniform : lo:float -> hi:float -> t
val exponential : mean:float -> t
val erlang : shape:int -> mean:float -> t

val hyperexponential_cv2 : mean:float -> cv2:float -> t
(** Two-branch balanced hyper-exponential with the given mean and squared
    coefficient of variation [cv2 >= 1]. *)

val lomax : alpha:float -> mean:float -> t
(** Lomax with the given tail index [alpha > 1] and mean. *)

val retransmission : success:float -> slot:float -> t

(** {1 Sampling and moments} *)

val sample : t -> Rng.t -> float
(** Draw one value.  Always non-negative. *)

val mean : t -> float
(** Analytic expected value. *)

val variance : t -> float option
(** Analytic variance; [None] when it does not exist (e.g. Lomax with
    [alpha <= 2]). *)

val cv2 : t -> float option
(** Squared coefficient of variation, [variance /. mean²]. *)

val cdf : t -> float -> float option
(** [cdf d x] is [P(X <= x)] when a closed form exists ([None] for Erlang
    with shape > 1 and for scalings of it).  Used by
    the Kolmogorov–Smirnov checks in {!Ks}. *)

val bounded_support : t -> bool
(** [true] iff the delay has a finite upper bound — i.e. the distribution is
    admissible for an {e ABD} network.  Every distribution here has a finite
    mean and is admissible for an {e ABE} network. *)

val support_upper_bound : t -> float option
(** The least upper bound of the support, when finite. *)

val same_mean_family : mean:float -> (string * t) list
(** The distribution family used by the robustness experiment (E9):
    deterministic, uniform, exponential, Erlang-4, hyper-exponential with
    cv² = 4, Lomax α = 2.5 and geometric retransmission with p = 0.25 — all
    with the given mean. *)

val pp : Format.formatter -> t -> unit
