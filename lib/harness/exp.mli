(** Replication.

    Every experiment is a function of a seed; replication runs it on a
    deterministic seed sequence derived from a base seed so that results
    are reproducible and independent across replications.

    All replicated entry points take an optional {!Driver.t} (default
    {!Driver.Sequential}).  Because each replicate owns its own generator
    stream, results are {e identical} under every driver — same seeds, same
    per-seed results, same ordering — parallelism only changes wall-clock
    time (see {!Driver}). *)

val seeds : base:int -> count:int -> int list
(** [count] distinct derived seeds. *)

val replicate :
  ?driver:Driver.t -> base:int -> count:int -> (seed:int -> 'a) -> 'a list
(** Run an experiment once per derived seed. *)

val replicate_timed :
  ?driver:Driver.t ->
  base:int ->
  count:int ->
  (seed:int -> 'a) ->
  'a list * Driver.timing
(** {!replicate} plus wall-clock timing of the batch, for throughput
    reporting. *)

val replicate_merged :
  ?driver:Driver.t ->
  base:int ->
  count:int ->
  (seed:int -> metrics:Abe_sim.Metrics.t -> 'a) ->
  'a list * Abe_sim.Metrics.t * Driver.timing
(** Replication with per-replicate metric registries: [f] receives a
    fresh registry for each seed (safe under the Domain-parallel driver,
    where a shared registry would race), and the registries are merged in
    seed order afterwards.  The merged registry — like the result list —
    is byte-identical whatever the driver. *)

val mean_of : ('a -> float) -> 'a list -> float
(** Mean of a projection over replication results. *)

val summary_of : ('a -> float) -> 'a list -> Abe_prob.Stats.summary
(** Summary of a projection over replication results. *)

val fraction_of : ('a -> bool) -> 'a list -> float
(** Fraction of results satisfying a predicate. *)
