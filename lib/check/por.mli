(** Dynamic partial-order reduction for the exhaustive explorer.

    At a decision point the engine offers candidates [0..k-1], each with
    a footprint bitmask of the simulation entities (nodes, links) it can
    touch — see {!Abe_sim.Engine.candidate.c_foot}.  Candidates with
    disjoint non-zero footprints commute, so exploring both orders is
    redundant.  Alternative pick [p] at a decision point gets no schedule
    of its own exactly when its footprint is non-zero (known) and disjoint
    from every earlier candidate's non-zero footprint: the [p]-first order
    then reaches the same state as an order already scheduled, through
    swaps of commuting pairs.  A footprint of [0] means unknown and
    conflicts with everything, so it is always expanded and blocks
    skipping of later candidates — unannotated events degrade the
    reduction, never its soundness. *)

(** State-space coverage accounting of one exhaustive exploration. *)
type coverage = {
  states : int;
      (** distinct [(digest, ordinal)] states visited — the vertex count
          of the explored quotient graph *)
  transitions : int;
      (** decision points executed across all schedules — edges walked,
          counting revisits *)
  sleep_skips : int;
      (** alternatives not scheduled because their footprints proved them
          commuting — the savings of the reduction *)
  collisions : int;
      (** digest keys observed with two different candidate counts: a
          hash collision made two distinct states look equal.  Non-zero
          collisions mean pruning may have been unsound for this run —
          the report surfaces the number instead of hiding it. *)
  complete : bool;
      (** the DFS stack emptied within the schedule budget and time
          budget: every non-pruned, non-skipped schedule was executed *)
}

val pp_coverage : Format.formatter -> coverage -> unit

(** One exhaustive exploration. *)
type 'v search = {
  schedules : int;  (** schedules executed *)
  pruned : int;  (** schedules cut by the seen-state table *)
  coverage : coverage;
  finding : (int * Schedulers.deviations * 'v list) option;
      (** the first violating schedule: its index, its {e executed}
          deviations and its violations *)
}

val search :
  por:bool ->
  window:float ->
  budget:int ->
  deadline:float ->
  (Abe_sim.Engine.scheduler -> 'v list) ->
  'v search
(** The depth-first schedule search shared by [Explore]'s exhaustive mode
    and [Certify]: [search ~por ~window ~budget ~deadline run] runs
    [run] under a {!Schedulers.scripted} scheduler for each schedule
    prefix, expanding untried alternatives ([por]: only those the
    footprint rule above allows) and pruning states already seen by
    [(digest, ordinal)].  It stops at the first schedule whose [run]
    returns violations, after [budget] schedules, or once the wall clock
    passes [deadline] (a [Unix.gettimeofday] time). *)
