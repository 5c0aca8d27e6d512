(** Structured simulation metrics: counters, gauges and log-bucketed
    latency histograms, collected in a named registry.

    The registry is the observability backbone of the simulator: the
    engine, the network and the protocol harnesses all record into one
    {!t} handed down from the caller, and the harness renders it as a
    summary table (or diffs it byte-for-byte between runs).

    Design constraints, shared with the invariant oracle:

    - recording draws {e no} randomness and never perturbs the
      simulation — enabling metrics leaves every outcome field
      byte-identical;
    - every query is deterministic in the recorded values;
    - {!merge_into} is {e order-independent} on bucket counts, counter
      values, gauge maxima and min/max bounds, so replicate registries
      merged in seed order produce identical tables whatever driver
      (sequential or Domain-parallel) produced them.

    Histograms bucket positive values geometrically with 8 buckets per
    octave (resolution ~9%): quantile queries return the geometric
    midpoint of the bucket containing the requested rank, clamped to the
    exact observed [min]/[max].  Zero and negative observations land in a
    dedicated zero bucket.  Bucket counts are stored densely over the
    range of bucket indices a histogram has touched (a run touches a few
    dozen of the ~16,800 that positive finite doubles span), so recording
    an observation allocates nothing once that range has settled. *)

type t
(** A metric registry.  Not thread-safe: under a Domain-parallel driver
    each replicate must own its registry, merged afterwards. *)

type counter
type gauge
type histogram

val create : unit -> t

(** {2 Registration}

    [counter]/[gauge]/[histogram] get-or-create the named metric.
    Resolve handles once (outside hot loops); recording through a handle
    is a field update.

    @raise Invalid_argument if the name is already registered with a
    different kind. *)

val counter : t -> string -> counter
val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

type family
(** Histograms indexed by an id (one per link, say), named
    [prefix ^ Printf.sprintf "%04d" i ^ suffix].  A family registers its
    members in one step and formats their names only when the registry is
    listed ({!report_rows}) or merged ({!merge_into}); everywhere
    else a member behaves exactly like a histogram registered under its
    name, which {!histogram} returns. *)

val histogram_family : t -> prefix:string -> suffix:string -> int -> family
(** [histogram_family t ~prefix ~suffix size] gets or creates the family
    and widens it to at least [size] members (ids [0 .. size-1]).  A
    histogram already registered under a new member's name becomes that
    member.
    @raise Invalid_argument if [size] is negative or a member's name is
    already a counter or a gauge. *)

val member : family -> int -> histogram
(** The member with id [i].
    @raise Invalid_argument if [i] is out of range. *)

(** {2 Recording} *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1; must be non-negative) to the counter. *)

val set_gauge : gauge -> float -> unit
(** Record a gauge level.  The gauge keeps the last value set and the
    maximum ever set (the maximum is what survives a merge). *)

val observe : histogram -> float -> unit
(** Record one observation.
    @raise Invalid_argument on [nan] or [infinity], which have no bucket
    ([neg_infinity] is a non-positive value and lands in the zero
    bucket). *)

val observe_int : histogram -> int -> unit
(** [observe_int h k] records exactly what [observe h (float_of_int k)]
    records (same bucket, count, sum, min and max), without boxing the
    sample: positive [k] below 4096 take their bucket from the small-integer
    table, larger ones the logarithm, and [k <= 0] the zero bucket.  For
    integer samples on hot paths: queue depths, in-flight counts, hop
    counts. *)

val observe_int_counts : histogram -> int array -> unit
(** [observe_int_counts h counts] records [counts.(k)] observations of
    [k] for every index [k], in one pass: the same buckets, count, min
    and max as that many {!observe_int} calls, and the same sum as long
    as the histogram's sum stays an integer below 2{^53} (the sum of the
    samples is added once, as an integer).  For a tally kept as counts by
    value, such as the engine's queue depths.
    @raise Invalid_argument on a negative count. *)

val bucket_of : float -> int
(** The geometric bucket of a positive finite value:
    [floor (log x *. 8. /. log 2.)], so bucket [i] holds
    [\[2^(i/8), 2^((i+1)/8))].  Integers below 4096 are looked up in a
    table filled by the same formula. *)

(** {2 Queries} *)

val counter_value : counter -> int
val gauge_value : gauge -> float option
(** Last value set; [None] if never set. *)

val hist_count : histogram -> int
val hist_sum : histogram -> float

val hist_min : histogram -> float
(** [nan] if empty. *)

val hist_max : histogram -> float
(** [nan] if empty. *)

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [\[0,1\]]: an estimate of the [q]-quantile
    of the observed sample, exact at the bucket resolution ([q = 0] and
    [q = 1] are exactly [hist_min]/[hist_max]).  [nan] on an empty
    histogram.
    @raise Invalid_argument if [q] is outside [\[0,1\]]. *)

(** {2 Merging} *)

val merge_into : into:t -> t -> unit
(** Fold a registry into [into]: counters add, gauge maxima combine by
    [max] (the merged "last value" is the maximum — a merged registry
    aggregates replicates, where "last" has no meaning), histograms add
    bucket-wise.  Metrics missing on either side are copied/kept.
    Order-independent: merging registries in any order yields the same
    queries and the same rendered rows.
    @raise Invalid_argument on a kind clash between same-named metrics. *)

(** {2 Rendering}

    The row set is deterministic: metrics sorted by name, floats
    formatted with [%g]. *)

val report_columns : string list
(** ["metric"; "kind"; "count"; "value"; "mean"; "p50"; "p90"; "p99";
    "max"] *)

val report_rows : t -> string list list
(** One row per metric, aligned with {!report_columns}; inapplicable
    cells are ["-"].  The harness renders them as an aligned table. *)
