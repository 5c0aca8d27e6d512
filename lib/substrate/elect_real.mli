(** The paper's ring election on the real-process substrate.

    Handlers run the simulator's per-event step ({!Abe_core.Runner.on_tick},
    {!Abe_core.Runner.on_token}) unchanged; tokens travel as 16-byte frames
    on the ring, and [Elected] requests global stop, making the stopping
    node the leader and the stop instant [elected_at].

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
    [fun ~seed -> Elect_real.run ~seed config].  With [telemetry], the
    run's causal span DAG is left in the collector (merge it afterwards);
    with [snapshots], live router state streams as JSONL.  The step's
    protocol marks ({!Abe_core.Runner.mark_label}) ride on the traced
    spans. *)

val pp_outcome : Format.formatter -> outcome -> unit
