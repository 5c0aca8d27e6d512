(** The link model of Definition 1, shared by both backends: how a seed
    becomes random streams, and how a send becomes a delay and a loss
    verdict.  {!Network} (the simulator) and [Abe_substrate.Cluster] (the
    real-process router) both take their streams and verdicts from here,
    so a fixed seed makes the same draws on either backend.

    {b Stream layout.}  This module owns the determinism contract (see
    DESIGN.md §6k).  [create] derives every stream from
    [Rng.create ~seed] by splitting, in this order:
    + one delay stream per link, by link id;
    + a (handler, clock) pair per node, by node id — the clock stream
      draws the node's {!Clock} and nothing else;
    + one loss stream per link, by link id — split only when the loss
      probability is non-zero or a loss schedule is set.

    New streams may only ever be appended: every seeded result depends on
    this order.

    {b Draw discipline.}  A send draws its delay first ({!delay}) and its
    loss verdict second ({!lost}), from separate streams, so the delays
    seen by delivered messages are the same with or without loss. *)

type t

val create :
  seed:int ->
  clock_spec:Clock.spec ->
  ?loss_schedule:(float -> float) ->
  loss_probability:float ->
  delay_of_link:(Topology.link -> Delay_model.t) ->
  Topology.t ->
  (t, string) result
(** Split the streams, draw every node's clock from its clock stream, and
    validate the model: every link's delay model (once per physically
    distinct model — configs overwhelmingly share one model across all
    links) and [loss_probability] in [\[0,1\]].  The error names the
    offending link (["link 3: ..."]); callers prefix it with their own
    name. *)

val delay : t -> int -> now:float -> float
(** [delay t link ~now] draws the delay of a message sent on [link] at
    time [now] ({!Delay_model.sample_at} on the link's delay stream). *)

val lost : t -> int -> now:float -> bool
(** [lost t link ~now] is the loss verdict of a message sent on [link] at
    [now]: the schedule's value at [now] (or the constant probability),
    then a Bernoulli draw on the link's loss stream.  A probability of 0
    draws nothing.  Schedules are arbitrary closures, so their value is
    checked here, where it is consumed.
    @raise Invalid_argument if the schedule returns a value outside
    [\[0,1\]]. *)

val handler_stream : t -> int -> Abe_prob.Rng.t
(** The node's own stream: protocol coins and processing-time draws. *)

val clock : t -> int -> Clock.t
(** The node's drifting clock, drawn from its clock stream by [create]. *)

val delay_stream : t -> int -> Abe_prob.Rng.t
(** The link's delay stream, which {!delay} draws from. *)

val loss_stream : t -> int -> Abe_prob.Rng.t
(** The link's loss stream, which {!lost} draws from.
    @raise Invalid_argument when loss is off (no loss stream is split). *)
