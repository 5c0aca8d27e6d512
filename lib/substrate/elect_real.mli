(** The paper's ring election on the real-process substrate.

    Each node is a {!Cluster} worker that runs the simulator's per-event
    step ({!Abe_core.Runner.on_tick}, {!Abe_core.Runner.on_token})
    unchanged.  Workers tick at the integer local times of their
    {!Abe_net.Clock} (absolute wall deadlines derived from the shared
    start instant, so scheduling lag never accumulates) and process
    deliveries in arrival order.  Tokens travel as 16-byte payloads of
    {!Wire} frames, and [Elected] sends a [Stop] frame, making the
    stopping node the leader and the stop instant [elected_at].

    The router is the network: it owns the other end of every socketpair
    and emulates ABE links in wall time.  Each accepted token draws a
    transit delay from {!Abe_net.Links}, the link model the simulator
    uses (in simulated-time units, converted by [scale] seconds per
    unit), and is held in a {!Holdq} until due; no loss schedule is set,
    so no token is lost.  A worker's coins are draw for draw the
    simulator's.  After [Stop] the router broadcasts [Shutdown], every
    worker answers with its final [Stats] frame and returns, and [run]
    joins every worker and closes every descriptor before returning —
    also on the timeout path.

    Fidelity caveats (see DESIGN.md §6i): processing time is not emulated
    ([gamma] must be 0) and [elected_at] is wall-clock elapsed divided by
    [scale], so OS scheduling jitter adds to it — parity with the
    simulator is distributional, not per-seed. *)

type config = private {
  election : Abe_core.Runner.config;
      (** ring size, [a0], parameters, delay model and the ring itself *)
  scale : float;  (** wall seconds per simulated time unit *)
  wall_timeout : float;
  spawn_mode : Cluster.spawn_mode;
}

val config :
  ?a0:float ->
  ?params:Abe_core.Params.t ->
  ?delay:Abe_net.Delay_model.t ->
  ?scale:float ->
  ?wall_timeout:float ->
  ?spawn_mode:Cluster.spawn_mode ->
  n:int ->
  unit ->
  config
(** Validated constructor: the election part goes through
    {!Abe_core.Runner.config} ([n >= 2], [a0] in (0,1), the delay model
    admissible for [params]) and — substrate restriction —
    [params.gamma] must be 0.  Raises [Invalid_argument]. *)

type outcome = {
  elected : bool;
  leader : int option;
  elected_at : float;  (** simulated-time units; [nan] when not elected *)
  messages : int;      (** tokens sent, from per-worker reports *)
  activations : int;
  ticks : int;
  delivered : int;
  lost : int;
  wall_time : float;   (** wall seconds for the whole run *)
  stats_missing : int;
  fidelity : Telemetry.Fidelity.summary;
      (** per-link delay-emulation fidelity (always recorded) *)
}

val run :
  ?metrics:Abe_sim.Metrics.t ->
  ?telemetry:Telemetry.Collector.t ->
  ?snapshots:Telemetry.Snapshot.t ->
  seed:int ->
  config ->
  (outcome, string) result
(** One real election: spawn the cluster, run to election or wall timeout,
    shut down cleanly.  Composes with [Exp.replicate] as
    [fun ~seed -> Elect_real.run ~seed config].  [Error] covers a run that
    never got off the ground — a non-positive [scale] or [wall_timeout],
    too many workers for the spawn mode, a socketpair or spawn failure,
    always with every resource already made released — and a worker that
    failed.

    With [metrics], the router publishes [real/sent], [real/delivered],
    [real/lost], [real/ticks], the [real/in_flight] and
    [real/max_in_flight] gauges and the fidelity instruments; every
    accepted token is delivered, lost or still in flight at shutdown.
    With [telemetry], the run's causal span DAG is left in the collector
    (merge it afterwards); with [snapshots], live router state streams as
    JSONL.  Both are pure observation.  The step's protocol marks
    ({!Abe_core.Runner.mark_label}) ride on the traced spans. *)

val pp_outcome : Format.formatter -> outcome -> unit
