(** Scheduling policies for schedule exploration and deterministic replay.

    The engine (see {!Abe_sim.Engine}) consults a scheduler only at
    {e decision points} — extractions with at least two eligible
    commutation candidates.  Policies here number those points
    [0, 1, 2, ...] in consultation order.  Since the engine is
    deterministic given the choices, a schedule is completely described by
    its {e deviations}: the sparse list of [(ordinal, pick)] pairs where
    the choice differed from the default (index 0, the earliest
    candidate).  Replaying the same deviations reproduces the execution
    byte for byte. *)

type deviations = (int * int) list
(** Sparse schedule encoding: [(ordinal, pick)] for every decision point
    where the pick was non-zero, in increasing ordinal order. *)

val default_window : float
(** The CLI's default commutation window: [0.5] (half the default
    expected message delay).  Every scheduler below considers the pending
    events within [window] of the earliest one. *)

val fuzz :
  window:float ->
  flip:float ->
  seed:int ->
  unit ->
  Abe_sim.Engine.scheduler * (unit -> deviations)
(** Randomised schedule fuzzer: at each decision point, with probability
    [flip] pick a uniformly random candidate, otherwise the default.  The
    second component returns the deviations recorded so far — after a run,
    the complete schedule.  Deterministic in [seed]; the RNG stream is
    fixed-draws-per-decision, so a pick at ordinal [d] depends only on
    [seed] and [d]'s position in the consultation order.

    @raise Invalid_argument if [flip] is outside [0,1] or [window] is
    negative or not finite. *)

val replay : window:float -> deviations -> Abe_sim.Engine.scheduler
(** Scripted replay of a recorded schedule: at ordinal [d] pick the
    recorded value, or 0 when [d] is not in the list.  Picks that are out
    of range for the candidate set actually offered fall back to 0 (this
    tolerates artifacts replayed against a slightly different
    configuration instead of crashing; byte-identical replay of an
    artifact against its own configuration never hits it). *)

(** What a scripted run observed at each decision point, in order. *)
type observation = {
  counts : int array;   (** candidate count at each decision point *)
  digests : int array;  (** pre-decision state digest at each point *)
  picks : int array;
      (** pick actually {e executed} at each point — the scripted value
          clamped to the candidate range.  Deviations reported from a
          trajectory must come from here, not from the requested prefix:
          only executed picks are guaranteed replayable byte for byte. *)
  foots : int array array;
      (** per-candidate footprints at each point (see
          {!Abe_sim.Engine.candidate.c_foot}); [0] = unknown.  The raw
          material for partial-order reduction ({!Por}). *)
}

val scripted :
  window:float ->
  prefix:int array ->
  unit ->
  Abe_sim.Engine.scheduler * (unit -> observation)
(** Exhaustive-exploration workhorse: follow [prefix] — pick
    [min prefix.(d) (k-1)] at ordinal [d < length prefix] — and the
    default beyond it, recording candidate counts, state digests, executed
    picks and candidate footprints.  The explorer uses the counts to
    enumerate untried alternatives, the digests to prune prefixes that
    reconverge to visited states, and the footprints to skip alternatives
    that provably commute with every earlier candidate ({!Por}). *)

val quantile : window:float -> unit -> Abe_sim.Engine.scheduler
(** The delay-quantile adversary's scheduler: always the default pick.
    It exists so adversary runs execute in scheduler mode — same clamping
    and monitoring semantics as fuzz/replay runs, keeping their artifacts
    replayable by {!replay}. *)
