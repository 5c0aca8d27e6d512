(** The Theorem-1 experiment (E6): what synchronisation costs on ABE
    networks.

    Runs synchronous BFS broadcast on a bidirectional ring four ways and
    compares against the lockstep reference:

    - {b α on ABE}: correct, but ≥ n control messages per pulse;
    - {b β on ABE}: correct, with the tree-based minimum of ≈ 2(n−1)
      control messages per pulse — Theorem 1's bound is essentially tight;
    - {b ABD synchroniser on an ABD network} (uniform delays, hard bound
      [2δ]): zero control messages, zero violations, correct;
    - {b ABD synchroniser on an ABE network} (exponential delays, same mean
      [δ]): zero control messages but late deliveries (violations) and, in
      general, a wrong result.

    Together: a synchroniser that stays under n messages per round must
    rely on the hard ABD bound, and that reliance is exactly what ABE
    networks break — the operational face of the impossibility result. *)

type variant_result = {
  label : string;
  payload_messages : int;
  control_messages : int;
  control_per_pulse : float;
  violations : int;
  correct : bool;    (** node states match the synchronous reference *)
  completed : bool;
}

type report = {
  n : int;
  pulses : int;
  window : int;                 (** ABD pulse window used, in ticks *)
  reference_payload : int;
  alpha_on_abe : variant_result;
  beta_on_abe : variant_result;  (** spanning-tree synchroniser: the cheapest
                                     correct option, still ~2(n-1) >= n-ish
                                     tree messages per pulse *)
  abd_on_abd : variant_result;
  abd_on_abe : variant_result;
}

val bfs_comparison :
  ?driver:Abe_harness.Driver.t ->
  ?replications:int ->
  seed:int ->
  n:int ->
  delta:float ->
  unit ->
  report
(** BFS broadcast on the bidirectional ring of [n] nodes, [delta] the
    expected-delay bound; pulse count [n/2 + 2] (enough for BFS to
    terminate).  The ABD-synchroniser variants aggregate payload/violation
    totals over [replications] (default 20) independent runs, executed by
    [driver] (default sequential; the report is identical under any
    driver); [correct] means every replication matched the reference. *)

(** {1 The α/β/γ family} *)

type synchroniser = Alpha | Beta | Gamma of int  (** cluster radius *)

(** One synchroniser's BFS run.  α has no tree traffic and counts its
    safe messages as [preferred], one cluster per node; β has no
    preferred links and one cluster. *)
type member = {
  synchroniser : synchroniser;
  control_per_pulse : float;
  acks : int;
  tree : int;
  preferred : int;
  clusters : int;
  correct : bool;  (** node states match the synchronous reference *)
}

val family :
  ?driver:Abe_harness.Driver.t ->
  seed:int ->
  gamma_seed:(int -> int) ->
  topology:Abe_net.Topology.t ->
  delay:Abe_net.Delay_model.t ->
  pulses:int ->
  radii:int list ->
  unit ->
  member list
(** BFS broadcast for [pulses] pulses under α, β and γ at each of [radii],
    in that order, each checked against the reference run at [seed].  α
    runs at [seed + 1], β at [seed + 2] and γ at [gamma_seed radius].  The
    runs go through [driver] (default sequential); the list is the same
    under any driver. *)

val pp_report : Format.formatter -> report -> unit
