(** Pluggable replication drivers.

    A driver decides {e how} a batch of independent tasks (typically one
    simulation per seed) is executed: {!Sequential} runs them in order on
    the calling domain, {!Parallel} fans them out over a pool of OCaml 5
    domains ([Domain.spawn]) with chunked assignment.

    Determinism guarantee: for any driver, [map driver f items] returns
    exactly [List.map f items] — same results, same ordering — provided [f]
    is deterministic and the tasks share no mutable state.  Replicated
    simulations satisfy this by construction (each replicate owns its own
    [Rng] stream and [Engine] instance), so parallel runs are byte-identical
    to sequential ones; only wall-clock time changes. *)

type t =
  | Sequential
  | Parallel of { num_domains : int }

val of_jobs : int -> t
(** [of_jobs 1] is {!Sequential}; [of_jobs k] for [k > 1] is
    [Parallel {num_domains = k}].  This is the CLI [--jobs N] mapping.
    @raise Invalid_argument if [jobs < 1]. *)

val pp : Format.formatter -> t -> unit

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map driver f items] computes [List.map f items].  With [Parallel],
    items are split into [num_domains] contiguous chunks, one per spawned
    domain; results are reassembled in input order, so the output is
    independent of scheduling.  An exception raised by [f] in any worker is
    re-raised in the caller (after all workers have been joined). *)

(** Wall-clock accounting for one [map] batch. *)
type timing = {
  driver : t;
  tasks : int;
  elapsed : float;  (** wall-clock seconds for the whole batch *)
}

val timed_map : t -> ('a -> 'b) -> 'a list -> 'b list * timing
(** {!map} plus wall-clock timing of the batch. *)
