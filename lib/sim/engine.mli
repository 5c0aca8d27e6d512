(** Discrete-event simulation engine.

    The engine owns a virtual clock and an ordered queue of pending events.
    [run] repeatedly extracts the earliest event, advances the clock to its
    timestamp and executes its action; actions typically schedule further
    events.  Execution is fully deterministic: equal-time events fire in
    scheduling order.

    Budgets ([limit_time], [limit_events]) guard against runaway executions
    of probabilistic algorithms: an execution that exceeds them ends with
    {!Hit_time_limit} / {!Hit_event_limit} instead of looping forever.  An
    event deferred by a budget keeps its original queue position — it is
    re-enqueued under its original sequence number, so resuming cannot
    demote it behind same-time peers scheduled later.

    {b Representation.}  Events live in an int-indexed arena in
    structure-of-arrays layout (timestamps in a flat [float array], actions
    in a parallel array, tag/seq/lamport/footprint in [int array]s) with
    freed slots recycled through a freelist.  Pending events are held in three
    places — the same-instant lane, the run and a heap — each of which
    orders bare arena indices.  [run] picks one of two loops per call.
    When no metrics registry, causal recorder or scheduler is attached, it
    enters the fast loop, with no per-event observation branches and no
    per-event allocation; otherwise the observed loop, which executes each
    event through the metrics, the causal recorder and the scheduler.
    Both loops pop in identical [(time, seq)]
    order, so executions are byte-identical whichever is selected.

    {b Same-instant lane and run.}  An event scheduled for exactly the
    current clock instant — a zero delay, such as a handler completion with
    no processing time — skips the heap and joins a FIFO lane.  A future
    event whose time is at least that of the last event appended to the
    run joins the run, a second FIFO: a tick round scheduled in instant
    order goes there, and so does each later round of clocks with equal
    rates, which fires and reschedules in the same order.  An event
    scheduled through {!schedule_arrival} never joins the run.  Every
    other future event goes into the heap.  Both FIFOs are always
    sorted by [(time, seq)] without any work: the clock never runs
    backwards, run appends never go back in time, and sequence numbers
    rise, so each new entry's key is at least the previous one's.  Every
    extraction ({!run}'s loops and a scheduler's candidate gathering)
    takes the least of the lane head, the run head and the heap
    minimum, comparing the full [(time, seq)] key.  The execution order is
    therefore exactly the order a single heap would give, also when a
    budget or a scheduler puts an event back (it goes back into the heap
    under its original key). *)

type t

type outcome =
  | Drained  (** the event queue became empty *)
  | Stopped  (** {!stop} was called from inside an event action *)
  | Hit_time_limit
  | Hit_event_limit
  | Hit_wall_deadline
      (** the host wall clock passed the [wall_deadline] given to
          {!create}; checked coarsely (every 1024 executed events), so the
          overshoot past the deadline is bounded by one coarse block of
          events, not by a whole run *)

(** {2 Schedulers}

    The "which enabled event fires next" decision is pluggable.  Without a
    scheduler the engine always executes the earliest pending event
    (timestamp order, ties by scheduling sequence) through the original
    zero-overhead path.  With a scheduler, at every extraction the engine
    gathers the {e commutation candidates} — the pending events whose
    timestamps lie within [window] of the earliest one (at most a fixed
    internal bound of them) — and asks [choose] which one fires.

    Two constraints make every choice a legal asynchronous reordering:

    - {b per-class FIFO}: candidates sharing a non-negative [tag]
      (scheduling class — per-link delivery, per-node processing; see
      {!schedule_at}) are never reordered among themselves: only the
      earliest of each class is offered to [choose];
    - {b monotone clock}: the chosen event executes at its own timestamp
      clamped up to the current clock, so virtual time never runs
      backwards.  Consequently [schedule_at] clamps (instead of rejecting)
      target times that a reordering has already overtaken.

    [choose] receives the candidates in ascending [(time, seq)] order —
    index 0 is the event the default policy would fire — plus a
    [state_digest] from {!set_digest_source} (0 when none is installed).
    It is only consulted when at least two candidates are eligible, and
    must return an index into the candidate array (out-of-range values
    fall back to 0).  Exploration tools count these consultations as the
    {e decision points} of a run. *)

type candidate = {
  c_time : float;  (** scheduled timestamp *)
  c_foot : int;
      (** footprint bitmask over the (node, link) entities the event's
          action touches, as declared at {!schedule} time.  [0] means
          unknown: exploration tools must treat such an event as
          conflicting with everything.  Two candidates with nonzero,
          disjoint footprints commute — executing them in either order
          reaches the same state — which is the information dynamic
          partial-order reduction keys on. *)
}

type scheduler = {
  window : float;
  (** commutation window: how far past the earliest pending timestamp the
      candidate set extends.  [0.] offers exact ties only. *)
  choose : now:float -> state_digest:int -> candidate array -> int;
}

val create :
  ?reuse:t ->
  ?metrics:Metrics.t ->
  ?scheduler:scheduler ->
  ?causal:Causal.t ->
  ?limit_time:float ->
  ?limit_events:int ->
  ?wall_deadline:float ->
  unit ->
  t
(** Fresh engine at virtual time 0.  [limit_time] bounds the clock value of
    executed events (default: none), [limit_events] the number of executed
    events (default: none).  [wall_deadline] is an absolute host timestamp
    (as returned by [Unix.gettimeofday]; default: none): once the wall
    clock passes it, [run] returns {!Hit_wall_deadline}.  The deadline is
    probed every 1024 executed events, so overshoot is bounded by one
    coarse block even inside a single long run.

    When a [metrics] registry is supplied the engine measures every
    executed event: counter ["engine/executed"] and histogram
    ["engine/queue_depth"] (pending events at each firing instant).  It
    tallies them in integers of its own and folds the tally into the
    registry when {!run} returns or an action's exception leaves it, so
    the registry holds the same rows as if each event had been recorded
    at once, and an action that reads these two metrics sees them as of
    the start of the current {!run}.  Recording draws no randomness and
    cannot perturb the execution.

    When a [causal] span recorder is supplied, every scheduled event is
    stamped with a Lamport time ({!Causal.scheduling_lamport} of the
    event executing at scheduling time), and the recorder is told — via
    {!Causal.enter_event}, with the event's Lamport stamp — that an event
    is executing just before each action runs.  Like metrics, this is
    pure observation: byte-identical executions.

    Without [scheduler] the engine behaves exactly as before the scheduler
    abstraction existed — same code path, byte-identical executions.  With
    one, extraction order is delegated as described above; the time budget
    is still checked against the earliest pending timestamp, so an
    over-budget run ends with {!Hit_time_limit} at most [window] later
    than it would by timestamp order.

    {b Reuse.}  [create ~reuse:e] resets [e] in place and returns it, so a
    harness running many executions of one size builds its engine once.
    [e] keeps the capacity of its event arena, heap, lane and run — the
    memory of its largest run so far — and loses everything else:
    the clock, the sequence numbers and the {!counters} go back to 0,
    every pending event is dropped without running, and the hooks,
    budgets and digest source become those of this call (none
    unless given again).  The reset engine executes exactly what a fresh
    one would.  [e] may be in any state — mid-run after {!stop}, over a
    budget, or abandoned by an exception — but no action of [e] may be
    executing, and an engine belongs to one domain at a time. *)

val now : t -> float
(** Current virtual time. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay].  [delay] must be
    non-negative and finite.  The event has no scheduling class and an
    unknown footprint ({!schedule_from} with [tag = -1], [footprint = 0]). *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant.  [time] must be [>= now t] — except under a
    scheduler, where an already-overtaken [time] is clamped to [now]
    (reordering may legitimately advance the clock past a time computed
    from a deferred event). *)

val schedule_from :
  t -> tag:int -> footprint:int -> times:float array -> int ->
  (unit -> unit) -> unit
(** [schedule_from t ~tag ~footprint ~times i f] runs [f] at [times.(i)],
    under the rules of {!schedule_at}, with the time read from the
    caller's flat array (as {!Pqueue.add_at} does): no float is boxed at
    the call.  Hot per-event paths schedule through it.  [tag] is the
    scheduling class used by the scheduler's per-class FIFO constraint
    ([-1]: none); it has no effect without a scheduler.  [footprint]
    ([0] = unknown) is the entity bitmask surfaced to schedulers as
    {!candidate.c_foot}; like [tag], it is pure metadata with no effect on
    execution. *)

val schedule_arrival :
  t -> tag:int -> footprint:int -> times:float array -> int ->
  (unit -> unit) -> unit
(** {!schedule_from} for an event at a random instant, such as a message
    arrival: the event joins the same-instant lane or the heap, never the
    run, so it cannot move the run's tail past the instant of a tick round
    still being scheduled.  Where an event waits changes no execution:
    every pop merges the three on the full [(time, seq)] key. *)

val stop : t -> unit
(** Request termination: [run] returns {!Stopped} after the current action
    finishes. *)

val set_digest_source : t -> (unit -> int) -> unit
(** Install the function that computes the [state_digest] handed to a
    scheduler's [choose].  Harnesses that know the protocol state hook a
    cheap structural hash here so exploration tools can prune schedules
    that reconverge to an already-seen state.  Consulted lazily — only at
    decision points with two or more eligible candidates — and never under
    the default (schedulerless) path. *)

val run : t -> outcome
(** Execute events until the queue drains or a budget is hit.  May be called
    again after {!Stopped} (or after scheduling more events) to resume.
    The engine holds no executed action once [run] returns: a closure, and
    whatever it captured, is collectable from then on (during the run it
    may stay in its freed slot until the slot is reused). *)

val executed_events : t -> int
val pending_events : t -> int

(** Per-run instrumentation.

    Counters start at zero on a fresh or reset engine (see {!create}) and
    are monotone non-decreasing until the next reset: they are never reset by
    {!run}, {!stop} or budget exhaustion, so they stay stable across [run]
    resumption (e.g. after {!Hit_time_limit}, where the over-budget event
    is re-queued without touching any counter). *)
type counters = {
  executed : int;
      (** events executed so far (same value as {!executed_events}) *)
  max_queue_depth : int;
      (** high-water mark of pending events *)
  wall_time : float;
      (** host wall-clock seconds accumulated inside {!run} calls *)
}

val counters : t -> counters
val max_queue_depth : t -> int
val wall_time : t -> float
