(** Message-passing protocol execution over the discrete-event engine.

    [Make (P)] builds a runtime for a protocol with message type
    [P.message] and per-node state [P.state].  The runtime implements the
    ABE network semantics of Definition 1:

    - every message experiences an independent random delay drawn from the
      configured per-link delay model (δ = expected delay);
    - every node owns a drifting local clock (rates within
      [\[s_low, s_high\]]), which generates {e tick} events at integer local
      times;
    - handling a local event (message arrival or tick) occupies the node for
      a random processing time (γ = its expected value); a node processes
      one event at a time, in arrival order.

    Nodes are {e anonymous}: handlers receive the node index only for
    accounting, and anonymous protocols must not use it to break symmetry
    (all randomness must come from the supplied per-node generator).

    Messages between a pair of nodes are delivered in arbitrary order by
    default (iid delays commute freely); set [fifo = true] to force per-link
    FIFO delivery. *)

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable lost : int;       (** dropped by link-loss failure injection *)
  mutable crashed_drops : int;
      (** messages addressed to a node that had crash-stopped *)
  mutable link_drops : int;
      (** messages dropped because their link was down — at the send
          instant or (for messages in flight when the link died) at the
          arrival instant *)
  mutable ticks : int;      (** tick events processed *)
  sent_per_node : int array;
  delivered_per_node : int array;
}

(** Network-level events, reported to the optional per-network observer.
    [seq] is a per-network send sequence number: assigned in send order,
    it lets a monitor track an individual message from [Send] to its
    [Deliver] / [Loss] / [Crash_drop] and check per-link FIFO order. *)
type event =
  | Send of { link : Topology.link; seq : int }
  | Deliver of { link : Topology.link; seq : int; dst : int }
  | Loss of { link : Topology.link; seq : int }
  | Crash_drop of { link : Topology.link; seq : int; dst : int }
  | Link_drop of { link : Topology.link; seq : int }
      (** the message's link was down — at send, or at arrival for a
          message in flight when the link died *)
  | Tick of { node : int; local_time : float }
      (** a tick was processed; [local_time] is the node's clock reading at
          the processing instant *)
  | Crash of { node : int }
  | Revive of { node : int }
      (** crash-recovery: the node rejoined with its state reset; emitted
          {e before} the node's [init] re-runs, so any sends init performs
          come from a node already known to be live *)
  | Link_down of { link : Topology.link }
  | Link_up of { link : Topology.link }

type observer = time:float -> stats:stats -> in_flight:int -> event -> unit
(** Called synchronously after the network's own accounting for the event
    has been updated, with the network's live [stats] record and in-flight
    count — so invariants such as message conservation
    ([sent = delivered + lost + crashed_drops + link_drops + in_flight])
    must hold at {e every} call.  Observers are read-only probes: they must
    not send, schedule or otherwise perturb the simulation (see
    {!Monitor}). *)

module type PROTOCOL = sig
  type state
  type message

  val pp_state : Format.formatter -> state -> unit
  val pp_message : Format.formatter -> message -> unit
end

type config = {
  topology : Topology.t;
  delay_of_link : Topology.link -> Delay_model.t;
  proc_delay : Abe_prob.Dist.t option;
      (** event-processing time distribution (mean γ); [None] = instant *)
  clock_spec : Clock.spec;
  fifo : bool;
  loss_schedule : (float -> float) option;
      (** per-message drop probability as a function of time, for fault
          injection; [Some (Fun.const p)] is constant loss [p].  The ABE
          model itself folds losses into the delay (Section 1(iii)), so
          the default is [None]: nothing is lost.  The returned value must
          lie in [\[0,1]] and is validated at every sample
          ([Invalid_argument] otherwise — schedules are arbitrary
          closures, so the output can only be checked where it is
          consumed).  Loss draws come from a dedicated per-link RNG stream
          ({!Links}), so any schedule (including the constant-0 one)
          leaves delay draws byte-identical. *)
  crash_times : (int * float) list;
      (** crash failure injection: [(node, time)] pairs — from [time] on,
          the node processes no events (messages to it are counted in
          [crashed_drops], its clock stops ticking).  Crash-stop unless a
          matching entry in [revive_times] turns it into crash-recovery.
          The ABE model assumes reliable nodes; this knob is for
          exploring what breaks without them.  Default: none. *)
  revive_times : (int * float) list;
      (** crash-recovery: [(node, time)] pairs — at [time], if the node
          is crashed, it rejoins as a fresh process: busy horizon reset
          to now, [init] re-run (state reset; init's sends happen), tick
          chain restarted.  Events scheduled for the dead incarnation
          (pending processing completions, the old tick chain) are inert.
          A revival of a live node is a no-op.  Default: none. *)
  link_downs : (int * float * float) list;
      (** time-varying topology: [(link, down_at, up_at)] outage
          episodes with [0 <= down_at < up_at].  While a link is down,
          messages sent on it — and messages still in flight at their
          arrival instant — are dropped and counted in [link_drops].
          Episodes on the same link may overlap (the link is live exactly
          when no episode covers the current instant).  Default: none. *)
  ticks_enabled : bool;
      (** generate tick events (needed by tick-driven protocols) *)
}

val default_config : topology:Topology.t -> delay:Delay_model.t -> config
(** No processing delay, perfect clocks, non-FIFO, no loss, ticks on, the
    same delay model on every link. *)

module Make (P : PROTOCOL) : sig
  type t

  (** Capabilities available to a handler while it executes.  A handler
      writes no trace entries of its own: the network's [trace] records
      every message fate (see {!create}). *)
  type context = {
    node : int;          (** this node's index (accounting only) *)
    n : int;             (** network size — known to nodes, as in the paper *)
    out_degree : int;    (** [send] link indices are [0 .. out_degree - 1] *)
    rng : Abe_prob.Rng.t;        (** this node's private random stream *)
    now : unit -> float;          (** real (global) time — not visible to
                                      realistic protocols; for measurement *)
    local_time : unit -> float;   (** this node's clock reading *)
    send : int -> P.message -> unit;
        (** [send i msg] transmits on the [i]-th outgoing link. *)
    stop : unit -> unit;          (** request simulation termination *)
  }

  type handlers = {
    init : context -> P.state;
    on_message : context -> P.state -> P.message -> P.state;
    on_tick : context -> P.state -> P.state;
  }

  (** {!Network.config}, re-exported so that its labels resolve through
      the functor application ([Net.fifo], ...). *)
  type nonrec config = config = {
    topology : Topology.t;
    delay_of_link : Topology.link -> Delay_model.t;
    proc_delay : Abe_prob.Dist.t option;
    clock_spec : Clock.spec;
    fifo : bool;
    loss_schedule : (float -> float) option;
    crash_times : (int * float) list;
    revive_times : (int * float) list;
    link_downs : (int * float * float) list;
    ticks_enabled : bool;
  }

  val default_config : topology:Topology.t -> delay:Delay_model.t -> config

  val create :
    ?reuse:t ->
    ?trace:Abe_sim.Trace.t ->
    ?metrics:Abe_sim.Metrics.t ->
    ?scheduler:Abe_sim.Engine.scheduler ->
    ?causal:Abe_sim.Causal.t ->
    ?observer:observer ->
    ?limit_time:float ->
    ?limit_events:int ->
    ?wall_deadline:float ->
    seed:int ->
    config ->
    handlers ->
    t
  (** Instantiate the network; [init] runs for every node at time 0 (nodes
      in index order) and first ticks are scheduled.  All randomness derives
      from [seed]; installing an [observer] consumes no randomness and
      changes no stream; streams, delays and loss verdicts come from
      {!Links}.  Every link's delay model is validated (see
      {!Links.create}), as are [proc_delay] and [crash_times]; invalid
      configuration raises [Invalid_argument] here rather than deep inside
      a run.

      When a [metrics] registry is supplied the network (and its engine)
      record into it: counters ["net/sent"], ["net/delivered"],
      ["net/lost"], ["net/crashed_drops"], ["net/link_drops"],
      ["net/ticks"]; histograms ["net/latency"] (link transit time of
      every message reaching a live node, aggregated) and
      ["net/link/NNNN/latency"] per link id (one
      {!Abe_sim.Metrics.histogram_family}); and ["net/in_flight"]
      (in-flight message count observed at every send and at every
      message leaving flight).  ["net/ticks"] equals [(stats t).ticks]
      whenever {!run} is not executing: it is added to once on every exit
      from {!run}, returning or raising, as the engine folds its own
      metrics.  Like tracing and observers, recording draws no randomness:
      every outcome is byte-identical with and without a registry.

      Every message fate reaches the stats, the metrics, the observer and
      an enabled [trace] alike.  The trace gets one entry per fate: a
      ["send"] from the sender, a ["recv"] from the destination, or a
      ["loss"], ["link-drop"] or ["crash-drop"] from the link.

      When a [causal] span recorder is supplied the network records the
      happens-before DAG into it (and threads it to its engine): a
      {e transit} span per message — created inside the sending handler,
      so it is parented to the sender's process span, and spanning send
      to arrival (zero-length, never delivered, for a lost message) — and
      a {e process} span per handler invocation (["recv"] for message
      deliveries, with the message's transit span as cause; ["tick"] for
      tick handlers), installed as the current span around the handler
      body so sends and protocol marks from inside it attach to it.
      Causal recording, too, is pure observation: byte-identical
      outcomes.

      A [scheduler] (see {!Abe_sim.Engine}) delegates the delivery-order
      decision among near-simultaneous events.  The network tags every
      event with its scheduling class — link transit events by link id,
      node-local processing completions and ticks by node — so any
      scheduler choice preserves per-link FIFO and per-node processing
      order.  With a scheduler attached the network additionally declares
      each event's {e footprint} (see {!Abe_sim.Engine.candidate.c_foot}):
      a message arrival touches its link and destination node; a
      processing completion or tick handler touches its node plus all of
      the node's out-links (everything its sends can reach); the tick
      chain's own fire events touch their node only.  Fault-injection
      events (crash, revive, link outage edges) declare no footprint and
      therefore conflict with everything — conservative, never unsound.
      Without a scheduler, execution uses the engine's original
      timestamp-order path, byte-identical to pre-scheduler builds.

      [wall_deadline] is forwarded to the engine (see
      {!Abe_sim.Engine.create}): an absolute host timestamp past which
      [run] returns [Hit_wall_deadline], probed every 1024 events.

      {b Reuse.}  [create ~reuse:net] starts a new run on [net] instead
      of building a network, and returns [net]: a harness that runs many
      seeds over one topology builds the nodes, their contexts, their
      tick closures, the pools and the per-node arrays once.  Its engine
      is reset ({!Abe_sim.Engine.create}), its streams and clocks are
      re-derived from [seed] in place ({!Links.create}), and every other
      piece of state — node liveness and incarnations, busy horizons,
      link membership, statistics, pending envelopes — goes back to its
      fresh value, whatever state [net] was left in (stopped, over a
      budget, past its wall deadline or abandoned by an exception).  The
      [config], [handlers] and hooks of this call replace those of the
      last one; none of the last run's hooks is kept in use.  The run
      that follows is bit for bit the run of a fresh [create] with the
      same arguments.  The contexts handed to [handlers] are the same
      physical records from run to run, and so are their [rng] streams,
      now carrying this seed's draws.

      [net] keeps the memory of its largest run (arena, heap, envelope
      and tick pools) and, until its next [create], references to the
      last run's [handlers] and hooks.  A network belongs to one domain
      at a time: reuse must not overlap a run of [net], nor happen from
      inside one of its handlers.
      @raise Invalid_argument if [reuse] was built over another topology
      (physical equality: share the [Topology.t] value). *)

  val run : t -> Abe_sim.Engine.outcome
  (** {!Abe_sim.Engine.run} on the network's engine, then ["net/ticks"]
      brought up to date (see {!create}). *)

  val counters : t -> Abe_sim.Engine.counters
  (** Engine instrumentation for this network's run(s): events executed,
      event-queue high-water mark and host wall-clock time — the raw
      material for the harness throughput reports. *)

  val now : t -> float
  val state : t -> int -> P.state
  val states : t -> P.state array
  val stats : t -> stats
  val engine : t -> Abe_sim.Engine.t
  val in_flight : t -> int
  (** Messages sent but not yet delivered or dropped. *)

  val crashed : t -> int -> bool

  val incarnation : t -> int -> int
  (** Number of times the node has crashed.  Node-local events scheduled
      under an earlier incarnation are inert: they can never deliver into
      a revived node's fresh state. *)

  val set_link_up : t -> int -> bool -> unit
  (** [set_link_up t link up] flips the link's topology membership now,
      emitting [Link_down] / [Link_up] on an actual change (no-op when the
      state already matches).  Normally driven by scheduled [link_downs]
      episodes; exposed for tests and manual scenario driving — mixing
      manual flips with overlapping scheduled episodes on the {e same}
      link is unsupported (the episode depth counter does not see manual
      flips). *)

  val link_is_up : t -> int -> bool

  val envelopes_in_use : t -> int
  (** Message-envelope pool slots currently off the freelist.  At
      quiescence this must equal {!in_flight} — and both must be 0 — under
      every fault scenario; the leak regression tests pin this. *)

  val tick_completions_in_use : t -> int
  (** Tick-completion pool slots currently off the freelist. *)
end
