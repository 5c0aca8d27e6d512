(** Real-process execution backend: one worker per protocol node.

    Where {!Abe_net.Network} executes a protocol inside the discrete-event
    simulator, a cluster executes the {e same pure transition functions}
    over operating-system concurrency: every node runs in its own worker
    (an OCaml domain by default, a systhread for high-fanout load tests),
    connected to a central router by a Unix socketpair carrying
    length-prefixed {!Wire} frames.

    The router is the network: it owns one end of every socketpair and
    emulates ABE link behaviour in wall-clock time.  Each accepted frame
    draws a transit delay from the link's {!Abe_net.Delay_model} (in
    simulated-time units, converted by [scale] seconds per unit) and is
    held in a {!Holdq} until due, unless {!Abe_net.Links.lost} drops it
    first.  A cluster sets no loss schedule, so that verdict is always
    false and costs one length test.  Streams, delays and loss verdicts all
    come from {!Abe_net.Links}, the link model the simulator uses, so a
    worker's activation coin sequence is draw-for-draw the simulator's.

    Workers tick at the integer local times of their {!Abe_net.Clock}
    (absolute wall deadlines derived from the shared start instant, so
    scheduling lag never accumulates) and process deliveries in arrival
    order.  A worker's [stop] sends a [Stop] frame; the router then
    broadcasts [Shutdown], every worker answers with its final [Stats]
    and returns, and [run] joins every worker and closes every file
    descriptor before returning — also on the stall/timeout path. *)

type spawn_mode =
  | Domains
      (** [Domain.spawn] per node: true parallelism, capped at 64 nodes
          (the OCaml runtime supports on the order of a hundred live
          domains, and a cluster needs one per node) *)
  | Threads
      (** systhreads: IO-bound workers, suited to many clusters; a sanity
          cap of 512 nodes *)

val open_fd_count : unit -> int option
(** Currently open file descriptors of the process (via [/proc/self/fd]);
    [None] where unavailable.  Used by leak regression tests. *)

type config = {
  topology : Abe_net.Topology.t;
  delay_of_link : Abe_net.Topology.link -> Abe_net.Delay_model.t;
  clock_spec : Abe_net.Clock.spec;
  scale : float;  (** wall seconds per simulated-time unit, > 0 *)
  wall_timeout : float;
      (** wall seconds before the router abandons the run, > 0 *)
  spawn_mode : spawn_mode;
}

type outcome = {
  stopped : bool;        (** a worker requested global stop *)
  stopper : int option;
  stopped_at : float;    (** simulated-time units; [nan] if not stopped *)
  sent : int;            (** frames accepted by the router *)
  delivered : int;
  lost : int;
  max_in_flight : int;
  node_sent : int array;
  node_recv : int array;
  ticks : int;           (** summed over workers *)
  aux : int;             (** protocol counter, summed over workers *)
  stats_missing : int;   (** workers that never reported final stats *)
  wall_time : float;     (** wall seconds, spawn to join *)
  worker_failure : string option;
      (** first exception raised inside a worker, if any *)
  fidelity : Telemetry.Fidelity.summary;
      (** per-link emulation fidelity: drawn ABE delay vs. the wall delay
          the router actually imposed (always recorded) *)
}

module type PROTOCOL = sig
  type state
  type message

  val encode_message : message -> string
  val decode_message : string -> message option
end

module Make (P : PROTOCOL) : sig
  (** Per-worker handler context, mirroring
      [Abe_net.Network.Make(P).context]: [now] is elapsed simulated time
      ([wall elapsed / scale]), [send link msg] emits on the node's local
      out-link index, [stop] requests global stop, [mark] bumps the
      worker's [aux] counter (reported in the outcome). *)
  type context = {
    node : int;
    n : int;
    out_degree : int;
    rng : Abe_prob.Rng.t;
    now : unit -> float;
    local_time : unit -> float;
    send : int -> P.message -> unit;
    stop : unit -> unit;
    mark : unit -> unit;
    note : string -> unit;
        (** protocol mark on the current traced span ("activate",
            "elected", ...); a no-op when tracing is off *)
  }

  type handlers = {
    init : context -> P.state;
    on_message : context -> P.state -> P.message -> P.state;
    on_tick : context -> P.state -> P.state;
  }

  val run :
    ?metrics:Abe_sim.Metrics.t ->
    ?telemetry:Telemetry.Collector.t ->
    ?snapshots:Telemetry.Snapshot.t ->
    seed:int ->
    config ->
    handlers ->
    (outcome, string) result
  (** Spawn, execute, shut down, join, close.  [Error] covers what never
      got off the ground — invalid config, socketpair or domain-spawn
      failure (always with every already-created resource released);
      anything after spawn is reported inside the outcome.

      With [telemetry], every data frame carries a trace context, each
      worker records handler spans into a {!Telemetry.Recorder} drained
      at shutdown, and the collector is left holding the full span log —
      call {!Telemetry.Collector.merge} after [run] returns.  With
      [snapshots], the router streams live JSONL state.  Both are pure
      observation: no extra randomness, no protocol perturbation. *)
end
