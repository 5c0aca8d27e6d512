(** Synchroniser certification: schedule exploration with the {!Skew}
    safety oracle attached.

    Each variant runs synchronous BFS broadcast ({!Abe_synchronizer.Sync_alg.Bfs})
    on the bidirectional ring under the scripted exploration scheduler —
    the depth-first enumeration with digest pruning and sleep-set POR of
    {!Por.search}, shared with [Explore]'s exhaustive mode — while an
    {!Abe_synchronizer.Skew} oracle checks every pulse transition and
    payload arrival:

    - {b alpha}, {b beta}, {b gamma}: round monotonicity {e and} bounded
      skew (bound 1).  A clean, complete exploration certifies the
      synchroniser's safety predicate over every reachable interleaving of
      the delay windows, not just the one timestamp order a single run
      samples.
    - {b abd}: the timeout synchroniser on ABE (exponential) delays —
      round monotonicity only, since the hard-bound assumption the skew
      invariant rests on is exactly what ABE breaks; the observed
      [max_skew] quantifies the breakage.

    A skew/monotonicity violation stops the variant's exploration and is
    reported with the schedule's executed deviations (replayable with
    {!Schedulers.replay}). *)

type report = {
  synchroniser : string;         (** [Synchronizer.name] of the kind *)
  skew_bound : int option;       (** [None]: monotonicity-only (abd) *)
  schedules : int;               (** schedules executed *)
  pruned : int;                  (** schedules cut by the seen-state table *)
  coverage : Por.coverage;
  events_checked : int;          (** oracle observations, summed over runs *)
  max_skew : int;                (** largest arrival skew seen in any run *)
  completed_runs : int;          (** runs where all nodes finished *)
  deviations : Schedulers.deviations;
      (** executed schedule of the violating run; [[]] when clean *)
  violations : Abe_sim.Oracle.violation list;
      (** oracle violations of that run; [[]] certifies the variant *)
}

val certified : report -> bool
(** No violations, the exploration completed (budget not hit) {e and}
    every explored run completed (none was cut at the event limit). *)

val run :
  window:float ->
  budget:int ->
  ?time_budget:float ->
  por:bool ->
  ?pulses:int ->
  seed:int ->
  n:int ->
  Abe_synchronizer.Synchronizer.kind ->
  report
(** Certify one synchroniser on the [n]-ring ([n >= 3]) with δ = 1
    exponential delays, exploring up to [budget] schedules of commutation
    [window], with partial-order reduction when [por].  α, β and γ are held
    to skew bound 1, ABD to monotonicity only.  [pulses] defaults to
    [n/2 + 2] (BFS terminates), [time_budget] (seconds of host time) to
    unlimited.  Deterministic in [seed] for a given budget when no time
    budget binds. *)

val pp_report : Format.formatter -> report -> unit
(** One line mirroring [Explore.pp_report]:
    [certify[alpha]: 12 schedules, ... , max skew 1, certified] followed by
    coverage and, on a violation, the violation lines.  A clean report
    that is not {!certified} reads [clean (truncated)]. *)
