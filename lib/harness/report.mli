(** Paper-claim vs. measurement records.

    Every experiment ends by returning one or more {!claim} records;
    [abe-sim reproduce] prints them as a closing scoreboard and they are
    the raw material of EXPERIMENTS.md. *)

type verdict = Reproduced | Partially | Failed

type claim = {
  id : string;               (** experiment id, e.g. "E3" *)
  claim : string;            (** the paper's statement *)
  expectation : string;      (** quantitative shape expected *)
  measured : string;         (** what we measured *)
  verdict : verdict;
}

val verdict_of_bool : bool -> verdict
val make :
  id:string -> claim:string -> expectation:string -> measured:string ->
  verdict:verdict -> claim

val print_scoreboard : claim list -> unit
(** Print the claims in order, then how many of them are
    {!Reproduced}. *)

(** {2 Throughput records}

    Per-experiment execution-rate accounting for the driver-parallel
    harness: how many replicates (and engine events) ran, in how much
    wall-clock time. *)

type throughput = {
  label : string;             (** experiment label, e.g. "E3 sweep" *)
  replicates : int;
  events : int;               (** total engine events *)
  elapsed : float;            (** wall-clock seconds *)
}

val throughput :
  label:string ->
  replicates:int ->
  events:int ->
  elapsed:float ->
  unit ->
  throughput

val pp_throughput : Format.formatter -> throughput -> unit
(** One line, starting with ["throughput:"], with the rate of replicates
    and of events — wall-clock dependent output, so deterministic-output
    consumers (cram tests) filter on that prefix. *)

val metrics_table : Abe_sim.Metrics.t -> Table.t
(** Render a metric registry as an aligned table titled ["metrics"] (one
    row per metric, sorted by name — see {!Abe_sim.Metrics.report_rows}).
    The rendering is deterministic: byte-identical registries yield
    byte-identical tables, so a sequential/parallel metrics diff can
    [cmp] the output. *)

val critpath_table : (int * Abe_sim.Critpath.breakdown list) list -> Table.t
(** Critical-path scaling table, titled ["critical path vs n"]: one row
    per [(n, replicate breakdowns)] pair, reporting per-replicate means of
    the elected-at time, the link/proc/idle attribution, the total (which
    telescopes to elected-at), the per-node total (≈ constant under the
    paper's linear claim) and the hop count.  Rows with no breakdowns (no
    replicate elected) render as ["-"].  Deterministic in the input
    list. *)

val churn_table :
  (float * int * Abe_sim.Critpath.breakdown list) list -> Table.t
(** Election-under-churn table, titled ["election under churn"]: one row
    per [(churn rate, replicate count, breakdowns of the replicates that
    elected)].  Reports the election success frequency at that rate, the
    mean elected-at time among successes, and the critical-path
    link/proc/idle attribution (whose total telescopes exactly to
    elected-at).  All-failed rows render the time columns as ["-"].
    Deterministic in the input list. *)
