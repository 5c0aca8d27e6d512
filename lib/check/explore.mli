(** Schedule exploration: a mini model-checker over the ABE engine.

    Exploration is {e stateless}: every schedule is a fresh, complete
    re-execution of {!Abe_core.Runner.run} under a {!Schedulers} policy
    with the invariant oracle on.  Three search modes:

    - {b fuzz}: randomised schedules, fanned out over a replication
      driver in fixed-size batches (so the outcome — which trial finds a
      violation, and every output byte derived from it — is identical for
      every [--jobs] value);
    - {b exhaustive}: bounded DFS over the tree of scheduler decisions
      for small rings, pruning trajectories that reconverge to an
      already-visited (state digest, decision ordinal) pair.  The digest
      cannot see in-flight message timing, so pruning is a heuristic
      state-abstraction, sound for digest-measurable invariants.  With
      [por = true], alternatives whose footprints prove them commuting
      with every earlier candidate are additionally skipped ({!Por}),
      typically shrinking the tree by an order of magnitude;
    - {b quantile}: a delay adversary that forces link subsets (smallest
      first) to a deterministic [tail ×] expected-delay value, outside
      the admissibility envelope, under the identity schedule.

    Orthogonally, a {e fairness bound} ([liveness]) turns every mode into
    a liveness checker: each schedule gets at most that many engine
    events, and a schedule that has not elected when the bound lands is
    reported as a structured ["liveness-election"] violation — shrunk,
    serialised and replayed exactly like a safety violation.

    Any violation is delta-debugged ({!Shrink.ddmin}) to a locally minimal
    deviation list / slow-link set, re-validated by execution, and can be
    serialised as a {!Repro} artifact for [abe-sim replay]. *)

type mode =
  | Fuzz of { flip : float }        (** per-decision deviation probability *)
  | Exhaustive of { por : bool }    (** [por]: skip commuting alternatives *)
  | Quantile of { tail : float }    (** delay multiplier, >= 1 *)

(** A shrunk counterexample.  [violations] is the oracle output of the
    final minimal-repro run — exactly what replaying the artifact
    prints. *)
type finding = {
  trial : int;           (** schedule index that first violated *)
  invariant : string;    (** first violated invariant *)
  violations : Abe_sim.Oracle.violation list;
  deviations : Schedulers.deviations;
      (** minimal; recorded from the {e executed} picks of the violating
          trajectory (see {!Schedulers.observation.picks}), so replaying
          them is byte-identical by construction *)
  slow_links : int list;               (** minimal (quantile mode) *)
  shrink_probes : int;   (** re-executions spent shrinking *)
}

type report = {
  mode : mode;
  schedules : int;       (** schedules executed by the search *)
  pruned : int;          (** DFS subtrees pruned by digest *)
  coverage : Por.coverage option;
      (** state-space accounting — exhaustive mode only ([None]
          otherwise).  [complete = true] certifies the whole quotient
          state space was covered within the budgets. *)
  finding : finding option;
}

val run :
  ?metrics:Abe_sim.Metrics.t ->
  driver:Abe_harness.Driver.t ->
  window:float ->
  budget:int ->
  ?time_budget:float ->
  forwarding:Abe_core.Runner.forwarding ->
  ?liveness:int ->
  mode:mode ->
  seed:int ->
  Abe_core.Runner.config ->
  report
(** Search up to [budget] schedules or [time_budget] wall seconds
    (default unlimited), stopping at the first violation, under
    schedulers of commutation [window] (see {!Schedulers}) and the given
    [forwarding] rule.  [driver] parallelises fuzz batches only — the DFS
    and the subset enumeration are inherently sequential.

    [liveness] (default 0 = off) is the fairness bound: each schedule is
    capped at that many engine events and must elect within them, else it
    is a ["liveness-election"] finding.  Runs cut short by the time
    budget's wall deadline are never reported — a truncated run proves
    nothing about liveness.

    The [time_budget] deadline is enforced both between schedules and
    {e inside} each run (threaded to the engine as a wall deadline,
    probed every 1024 events), so one pathological schedule cannot
    overshoot the budget unboundedly.

    A [metrics] registry receives counters ["check/schedules"],
    ["check/violations"], ["check/pruned"], ["check/shrink_steps"] and —
    exhaustive mode — ["check/states"], ["check/transitions"],
    ["check/sleep_skips"], ["check/digest_collisions"].

    Determinism: for fixed arguments the report is reproducible; with
    [time_budget = infinity] it is identical across runs and drivers
    (wall-clock cutoffs are inherently racy, so CI uses schedule
    budgets).

    @raise Invalid_argument on a non-positive budget, a quantile tail
    below 1, or quantile mode with [n > 20]. *)

val apply_slow_links :
  tail:float -> int list -> Abe_core.Runner.config -> Abe_core.Runner.config
(** Force the listed links to a deterministic [tail ×] expected delay —
    the quantile adversary's configuration transform, exposed for replay.
    Intentionally bypasses the admissibility validation of
    {!Abe_core.Runner.config}: probing beyond the advertised bounds is
    the point.  Empty list: the configuration is returned unchanged. *)

val replay_run :
  ?trace:Abe_sim.Trace.t ->
  ?metrics:Abe_sim.Metrics.t ->
  artifact:Repro.t ->
  Abe_core.Runner.config ->
  (Abe_core.Runner.outcome, string) result
(** Re-execute a repro artifact against the configuration rebuilt from
    its header: applies the slow links, replays the deviations at the
    recorded window, runs under the oracle with the recorded forwarding
    rule and fairness bound (a liveness artifact re-synthesises its
    ["liveness-election"] violation when the replay again fails to
    elect).  Byte-identical to the run that produced the artifact. *)

val mode_name : mode -> string

val to_repro :
  mode_name:string ->
  seed:int ->
  a0:float ->
  delta:float ->
  gamma:float ->
  drift:float ->
  delay:string ->
  fault:string ->
  window:float ->
  tail:float ->
  forwarding:Abe_core.Runner.forwarding ->
  fairness:int ->
  n:int ->
  finding ->
  Repro.t
(** Package a finding as an artifact; the CLI supplies its own flag
    values ([fairness] = the liveness bound, 0 when off) so the header
    round-trips through {!Repro.of_file} into the same configuration. *)

val pp_report : Format.formatter -> report -> unit
