(** Closed-form quantities from the paper, used as the "paper side" of every
    experiment in EXPERIMENTS.md. *)

val k_avg : p:float -> float
(** Section 1(iii): expected number of transmissions over a lossy channel
    with per-attempt success probability [p]:
    [sum_{k>=0} (k+1) (1-p)^k p = 1/p].  Requires [p] in [(0,1\]]. *)

val retransmission_delay_mean : p:float -> slot:float -> float
(** Expected delay when each attempt takes [slot] time: [slot /. p]. *)

val recommended_a0 : ?theta:float -> int -> float
(** [recommended_a0 n] is the constant-activation-mass instantiation
    [θ/n²] (clamped to (0, 0.5]), under which the paper's average linear
    time and message complexity is observed.  [theta] defaults to 1. *)

val chang_roberts_expected_messages : n:int -> float
(** [n·H_n], with [H_n = Σ_{k=1..n} 1/k]: average message count of
    Chang–Roberts on a ring with random identifier ordering, [≈ n ln n]. *)

val dkr_worst_case_messages : n:int -> float
(** Dolev–Klawe–Rodeh deterministic bound, [n·log2 n + O(n)] — reported as
    [n·(log2 n + 1)] for shape comparison. *)
