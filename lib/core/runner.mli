(** Execution harness for the ABE election algorithm.

    Wires {!Election} into {!Abe_net.Network} on a unidirectional ring and
    runs it to completion (leader elected) or to a budget limit, returning a
    full accounting of the execution. *)

type pool
(** What a configuration builds once for all its runs: each link's delay
    model under the fault's overlay, the election's receipt rule
    ({!Election.rule}, with one shared record per passive state), and the
    networks kept for reuse (see "Reuse" under {!run}). *)

type config = private {
  n : int;                             (** ring size (known to all nodes) *)
  a0 : float;                          (** base activation parameter *)
  params : Params.t;                   (** δ, γ, clock bounds *)
  delay : Abe_net.Delay_model.t;       (** default message delay model *)
  link_delays : Abe_net.Delay_model.t array option;
      (** optional heterogeneous links: [link_delays.(i)] is the delay model
          of the link out of node [i].  The paper's Definition 1 needs only
          one bound: "the links in a network are typically not homogeneous
          … the maximum of these delays can be chosen as an upper bound"
          (Sec. 2) — validation checks every per-link mean against
          [params.delta]. *)
  proc_delay : Abe_prob.Dist.t option; (** event processing time (mean γ) *)
  limit_time : float;                  (** simulation budget, real time *)
  limit_events : int;
  fault : Abe_net.Faults.t;
      (** fault-injection scenario, applied on top of the configuration:
          its delay episodes overlay every link, its loss schedule drives
          per-link loss, its crashes stop nodes (the paper assumes reliable
          nodes: a crashed node silently breaks the ring, tokens die at it,
          so elections stall), and its rejoins
          and link outages rewrite the topology over time (crash-recovery
          nodes rejoin with their election state reset; the monitor then
          checks the Dynamic invariant class).  Scenarios are exempt from
          the admissibility checks — perturbing the network outside its
          advertised bounds is their purpose.  Default:
          {!Abe_net.Faults.none}. *)
  record_mass : bool;
      (** sample the wake-up mass Σd and the non-passive count at every
          knockout, purge and election.  Both are running sums, so a
          sample is O(1); [false] only skips keeping the samples (outcome
          [mass_samples] is then empty), which huge-ring benchmarks do for
          the memory.  Default [true]. *)
  record_phases : bool;
      (** accumulate the per-transition phase log.  O(1) per transition but
          O(n) memory; [false] leaves outcome [phase_transitions] empty.
          Default [true]. *)
  topology : Abe_net.Topology.t;
      (** [Topology.ring n], built once by {!config} and shared by every
          run of this configuration (topologies are immutable).  The record
          is private so that it cannot drift from [n]. *)
  activation : float array;
      (** the tick rule's table, built once by {!config} like [topology]:
          [activation.(d)] is [Election.activation_probability ~a0 ~d],
          bit for bit, for every watermark [d] in [1 .. n] (entry 0 is
          unused), or [a0] throughout in a {!naive} copy.  An idle
          node's tick draws against it instead of recomputing the
          power. *)
  pool : pool;
      (** built by {!config} with no network in it.  {!with_link_delays},
          {!with_limit_events} and {!naive} copies get a pool of their
          own. *)
}

val config :
  ?a0:float ->
  ?params:Params.t ->
  ?delay:Abe_net.Delay_model.t ->
  ?link_delays:Abe_net.Delay_model.t array ->
  ?proc_delay:Abe_prob.Dist.t option ->
  ?limit_time:float ->
  ?limit_events:int ->
  ?fault:Abe_net.Faults.t ->
  ?record_mass:bool ->
  ?record_phases:bool ->
  n:int ->
  unit ->
  config
(** Defaults: [a0 = 0.3], default {!Params.t}, exponential delay with mean
    [params.delta], no processing delay, [limit_time = 1e7],
    [limit_events = 200_000_000].

    @raise Invalid_argument if the delay model's expected delay exceeds
    [params.delta] or the processing mean exceeds [params.gamma] — the
    configuration would not be an honest ABE network — if [limit_time]
    is not positive (NaN included) or [limit_events] is not positive, or
    if [fault] names a node or link outside the ring. *)

val naive : config -> config
(** The ablation of experiment E5: a copy of [config] whose idle nodes
    activate with {e constant} probability [a0] instead of the paper's
    [1 - (1-a0)^d] schedule.  Run it with {!run}. *)

val with_link_delays : config -> Abe_net.Delay_model.t array -> config
(** [with_link_delays config models] replaces the per-link delay models
    {e without} the admissibility check of {!config}: adversarial
    exploration pushes chosen links past [params.delta] on purpose.
    @raise Invalid_argument unless there is one model per node. *)

val with_limit_events : config -> int -> config
(** [with_limit_events config k] replaces the engine event budget.
    @raise Invalid_argument unless [k] is positive. *)

type outcome = {
  elected : bool;
  leader : int option;        (** index of the elected node, if any *)
  leader_count : int;         (** number of nodes in the leader phase; > 1
                                  would falsify the algorithm *)
  elected_at : float;         (** real time of election; [nan] if none *)
  messages : int;             (** total link transmissions *)
  activations : int;          (** idle -> active transitions *)
  knockouts : int;            (** idle -> passive transitions *)
  purges : int;               (** token collisions at active nodes *)
  ticks : int;                (** tick events processed *)
  activation_times : float array;  (** real times of activations, for the
                                       wake-up–rate experiment *)
  mass_samples : (float * int * int) array;
      (** [(time, Σ d over non-passive nodes, non-passive count)] sampled at
          every knockout and purge (and at election).  The paper's design
          goal is that the first component stays ≈ n — so the aggregate
          wake-up probability [1-(1-A0)^Σd] is constant over time — while
          the non-passive count, which governs a naive constant-[A0]
          schedule, decays. *)
  phase_transitions : (float * int * Election.phase) array;
      (** every phase change, as [(time, node, new phase)] in chronological
          order — the raw material for execution timelines. *)
  executed_events : int;      (** engine events executed by this run *)
  max_queue_depth : int;      (** event-queue high-water mark *)
  wall_time : float;
      (** host wall-clock seconds this run spent inside the engine — unlike
          every other field it is {e not} deterministic in the seed; it
          feeds throughput reports and must be excluded from replay
          comparisons *)
  engine_outcome : Abe_sim.Engine.outcome;
  violations : Abe_sim.Oracle.violation list;
      (** invariant violations found by the runtime oracle; always [[]]
          when the run was not checked *)
  stalled : string option;
      (** structured reason why the run's goal became impossible: a node
          crashed with no scheduled rejoin before the election (or, under
          {!announce}, before the lap passed it), permanently breaking the
          ring that the token must traverse.  The run then stops early,
          with engine outcome [Stopped] rather than a burned-out time
          limit.  [None] on every run that reached its goal or was live. *)
}

(** Token-forwarding rule, for oracle and liveness self-tests:
    {!Stale_max} reintroduces (seeded, clamped to [n]) the historical bug
    of forwarding [max d hop + 1] instead of [hop + 1], which the
    hop-soundness monitor must catch; {!Drop_token} silently drops every
    token that has traversed two or more links instead of forwarding it,
    so for [n >= 3] no schedule can ever elect — the seeded mutation the
    liveness checker must catch. *)
type forwarding = Paper | Stale_max | Drop_token

(** {1 The per-event step}

    The one place that turns {!Election} into handler behaviour, for the
    simulator ({!run}) and the real backend ([Abe_substrate.Elect_real]):
    same tokens, same hop-soundness predicate, same marks. *)

type mark = Activate | Knockout | Purge | Elected

val mark_label : mark -> string
(** ["activate"], ["knockout"], ["purge"], ["elected"]. *)

type 'ctx step
(** A backend's half of the handlers over its context ['ctx]. *)

val step :
  config ->
  send:('ctx -> hop:int -> traversed:int -> unit) ->
  mark:('ctx -> mark -> traversed:int -> unit) ->
  unsound:('ctx -> hop:int -> traversed:int -> unit) ->
  'ctx step
(** The paper's rule on [config]'s ring.  [send] puts a token on the
    out-link; [mark] reports an event before its send, with the arriving
    token's link count ([0] for [Activate]), and the backend stops on
    [Elected]; [unsound] reports a token with [hop <> traversed]. *)

val on_tick :
  'ctx step -> 'ctx -> rng:Abe_prob.Rng.t -> Election.state -> Election.state

val on_token :
  'ctx step -> 'ctx -> Election.state -> hop:int -> traversed:int ->
  Election.state

val run :
  ?trace:Abe_sim.Trace.t ->
  ?metrics:Abe_sim.Metrics.t ->
  ?scheduler:Abe_sim.Engine.scheduler ->
  ?causal:Abe_sim.Causal.t ->
  ?check:bool ->
  ?forwarding:forwarding ->
  ?wall_deadline:float ->
  seed:int ->
  config ->
  outcome
(** One complete simulation.  Deterministic in [seed]; [check] (default
    [false]) runs it under the invariant oracle — hop soundness, unique
    leader, election soundness, message conservation, quiescence, clock
    drift — filling [violations].  Checking changes no random draw and no
    event ordering: all other outcome fields are byte-identical with and
    without it.

    A [metrics] registry receives, on top of the engine and network
    instrumentation (see {!Abe_net.Network}), the election-layer metrics:
    counters ["election/activations"], ["election/knockouts"],
    ["election/purges"]; histograms ["election/token_hops"] (hop counter
    of every token arrival), ["election/activation_time"] (real times of
    activations) and ["election/live_tokens"] (tokens in circulation,
    sampled at every activation and purge); gauges
    ["election/elected_at"] and ["election/hops_at_election"].  Like
    [check], recording is a pure observation: it draws no randomness and
    leaves every outcome field byte-identical.

    A [causal] span recorder (see {!Abe_sim.Causal}) receives the run's
    happens-before DAG from the network, plus the election-layer
    annotations: phase transitions as marks ({!mark_label}) attached to
    the handler span they happened in, and the electing delivery's span
    nominated as the critical-path sink ({!Abe_sim.Causal.set_sink}) for
    {!Abe_sim.Critpath.analyze}.  Also a pure observation — byte-identical
    outcomes.

    A [scheduler] (see {!Abe_sim.Engine}) delegates the delivery-order
    decision among near-simultaneous events to exploration tools
    ({!Abe_check}).  Under a scheduler the runner also installs a state
    digest (election phases and [d] values, counters, network statistics)
    for schedule pruning, and disables the monitor's clock-rate checks —
    reordering legitimately shifts execution instants within the
    commutation window.  Without one, execution is byte-identical to
    pre-scheduler builds.

    [wall_deadline] (absolute host timestamp, default none) is forwarded
    to the engine: a run still going when the wall clock passes it ends
    with [engine_outcome = Hit_wall_deadline], probed every 1024 events —
    this is how exploration keeps one long schedule from blowing through
    a [--time-budget].

    {b Reuse.}  A configuration builds each ring once: a run takes a
    network (and the monitor of its last checked run) from the
    configuration's {!pool}, resets it in place — streams and clocks
    re-derived from [seed], engine and pools emptied, this run's hooks
    installed ({!Abe_net.Network.Make.create}) — and gives it back when
    it ends, however it ends (election, stop, budget, wall deadline or
    exception).  A run takes a fresh network only when none is free.
    Reuse is unobservable: every outcome field but [wall_time], and
    every export of every hook, is what the same run on a freshly built
    configuration gives, whatever ran on the configuration before.

    The pool is a lock-free stack, so one configuration may be shared by
    runs on several domains at once ([Abe_harness.Driver]): each run
    holds a network of its own, and a configuration ends up holding as
    many networks as it ever ran at once.  Each network keeps the memory
    of its largest run so far, O(n) plus its event high-water mark, and
    references to its last run's hooks (trace, registry, span recorder,
    scheduler) until its next run.  All of it lives exactly as long as
    the configuration: there is no global cache, and no setting. *)

type announced = {
  election : outcome;  (** [messages] excludes the announcement lap *)
  announce_messages : int;  (** exactly [n] on success *)
  all_informed : bool;
  informed_at : float;  (** when the lap closed; [nan] if it did not *)
}

val announce :
  ?trace:Abe_sim.Trace.t ->
  ?metrics:Abe_sim.Metrics.t ->
  ?causal:Abe_sim.Causal.t ->
  ?check:bool ->
  seed:int ->
  config ->
  announced
(** {!run} with termination detection: instead of stopping, the fresh
    leader sends an announcement round the ring, and its return is the
    run's goal — [n] extra messages and one ring traversal of time.  The
    election phase is the same execution as {!run}'s, and the oracle,
    metrics, causal marks and stall rule apply unchanged; the lap too needs
    every link, so the stall rule also covers nodes it has yet to pass.
    Adds the counter ["announce/messages"] and the mark ["informed"]. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_announced : Format.formatter -> announced -> unit
