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
    + one loss stream per link, by link id — split only when a loss
      schedule is set.

    New streams may only ever be appended: every seeded result depends on
    this order.

    {b Draw discipline.}  A send draws its delay first ({!delay}) and its
    loss verdict second ({!lost}), from separate streams, so the delays
    seen by delivered messages are the same with or without loss. *)

type t

val create :
  ?reuse:t ->
  seed:int ->
  clock_spec:Clock.spec ->
  ?loss_schedule:(float -> float) ->
  delay_of_link:(Topology.link -> Delay_model.t) ->
  Topology.t ->
  (t, string) result
(** Split the streams, draw every node's clock from its clock stream, and
    validate every link's delay model (once per physically distinct
    model — configs overwhelmingly share one model across all links).  The
    error names the offending link (["link 3: ..."]); callers prefix it
    with their own name.

    [loss_schedule] is the loss probability as a function of time, the
    only loss input: [Fun.const p] is constant loss [p].  Without it no
    message is lost.  Its values are checked where they are consumed, by
    {!lost}.

    [reuse] re-derives an earlier model of the same shape in place and
    returns it: every delay model is looked up again, every stream is
    split again in the order above into its existing buffer, and every
    clock is redrawn, so the result is bit for bit a fresh [create] with
    the same arguments.  Nothing is allocated per node or link (loss
    streams excepted, the first time loss is on).  The streams and clocks
    handed out by {!handler_stream}, {!clock} and the others stay the same
    physical values, now carrying the new seed's draws.
    @raise Invalid_argument if [reuse] has another node or link count. *)

val delay_into : t -> int -> now:float -> float array -> int -> unit
(** [delay_into t link ~now dst i] draws the delay of a message sent on
    [link] at time [now] into [dst.(i)] ({!Delay_model.sample_into} on the
    link's delay stream), so that a simulated send keeps it flat in its
    job's arrival column. *)

val lost : t -> int -> now:float -> bool
(** [lost t link ~now] is the loss verdict of a message sent on [link] at
    [now]: the schedule's value at [now], then a Bernoulli draw on the
    link's loss stream.  Without a schedule it is [false] at the cost of
    one length test; a probability of 0 draws nothing.  Schedules are
    arbitrary closures, so their value is checked here, where it is
    consumed.
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
