(** Causal span tracing: the happens-before DAG of an execution.

    A {e span} is a time interval on a track (a node, or a link) together
    with the set of spans that causally precede it.  The engine, the
    network and the protocol harness record spans as they execute:

    - {e transit} spans cover a message's flight on a link — begun at the
      send instant, ended at arrival (or at the send instant itself for a
      lost message); their parent is the handler span that sent them, so
      every delivery links back to its send;
    - {e process} spans cover a handler occupancy on a node — begun when
      the triggering event arrives, busy from when the node actually
      starts processing it (arrival may queue behind earlier work), ended
      at handler completion; their parents are the message cause (for
      deliveries) and the node's previous process span (nodes handle
      events one at a time, in arrival order);
    - {e marks} are instantaneous protocol annotations (phase transitions:
      activate, knockout, purge, elected) attached to the span in which
      they happened.

    Every span carries a stable id (dense, in recording order) and a
    Lamport clock: one more than the maximum Lamport time among its
    parents and the engine event that recorded it ({!enter_event}).

    Recording is a {e pure observation}, the same discipline as
    {!Metrics} and the invariant oracle: it draws no randomness,
    schedules nothing, and leaves every execution byte-identical.  Spans
    are retained without bound — a recorder is meant to live for one run
    and be analyzed ({!Critpath}) or exported ({!output_trace_json})
    afterwards.

    {b Representation.}  The recorder keeps the DAG in row-major chunks
    of 64 spans indexed by span id: per chunk, one [int array] of
    three-word rows (Lamport time and cause packed; the program-order
    predecessor, or a transit's endpoints; track, interned label id and
    kind packed) and one [float array] of three-word rows (begin, busy
    and end instants).  That is 48 bytes per span, written in one pass
    without a pointer store.  Each array of a chunk is 192 words, small
    enough for the minor heap, so a recorder that lives for one run dies
    there with its chunks; one that survives a minor collection has its
    chunks promoted once.  Chunks are never copied; the node occupants,
    the current span and the sink are ids.  Recording a span therefore
    allocates no per-span heap block the recorder keeps: a {!span} is a
    small handle (recorder, id) built when one is returned, and
    {!spans}, {!parents} and {!shape} are built from the rows on each
    call.  A {!shape} is a snapshot: a transit's [delivered] is what it
    was when {!shape} was called.

    Labels are interned per recorder, so any number of distinct labels
    reads back unchanged.  The recorder remembers the label passed last:
    a caller that passes the same string literal span after span (the
    network's ["tick"], ["recv"] and ["msg"]) has it found by one
    physical comparison, and any other string is looked up by value.
    The packing bounds what a recorder holds: node and link ids below
    2{^31}, fewer than 2{^31} spans, Lamport times below 2{^31} and fewer
    than 2{^30} distinct labels; recording beyond a bound raises
    [Invalid_argument]. *)

type t
(** A span recorder.  Not thread-safe: one recorder per run, like a
    metric registry. *)

type span

(** Track geometry of a span: a message in flight, or a handler
    occupancy.  [t_busy] is when the node actually started processing
    ([t_busy - t_begin] is queueing delay behind earlier work);
    [delivered] is true once a process span has named the transit span as
    its cause (as of the {!shape} call that built the value). *)
type shape =
  | Transit_shape of { link : int; src : int; dst : int; delivered : bool }
  | Process_shape of { node : int; t_busy : float }

val create : unit -> t

val span_count : t -> int

(** {2 Engine integration}

    The engine stamps every scheduled event with a Lamport time
    ({!scheduling_lamport} at scheduling) and announces each executed
    event ({!enter_event}); spans recorded while the event executes
    inherit its Lamport time as a floor.  See {!Engine.create}. *)

val enter_event : t -> lamport:int -> unit
(** An engine event with Lamport time [lamport] started executing.  Resets
    the current span. *)

val scheduling_lamport : t -> int
(** Lamport time for an event being scheduled now: one more than the
    executing event's. *)

(** {2 Recording} *)

val transit :
  t ->
  link:int ->
  src:int ->
  dst:int ->
  t_begin:float ->
  t_end:float ->
  label:string ->
  span
(** Record a message flight.  Parent: the current span, if any (sends
    happen inside the sending handler). *)

val process :
  t ->
  ?cause:span ->
  node:int ->
  label:string ->
  t_begin:float ->
  t_busy:float ->
  t_end:float ->
  unit ->
  span
(** Record a handler occupancy.  [cause] is the transit span of the
    message being delivered (omitted for ticks); marking it sets its
    [delivered] flag.  The node's previous process span is added as an
    implicit program-order parent.  Parent order is the {!Critpath}
    tie-break: the cause precedes the program-order predecessor. *)

(** {2 Recording by id}

    The per-event recorders of the simulator's network.  They return the
    new span's id instead of a {!span} handle, take the parent as an id
    ([-1] = none) instead of an option, and read their instants from the
    caller's flat arrays at index [i] (as {!Engine.schedule_from} does), so
    recording a handled event boxes nothing. *)

val transit_at :
  t ->
  link:int ->
  src:int ->
  dst:int ->
  t_begin:float array ->
  t_end:float array ->
  label:string ->
  int ->
  int
(** {!transit} with its instants at [t_begin.(i)] and [t_end.(i)]. *)

val process_at :
  t ->
  cause:int ->
  node:int ->
  label:string ->
  t_begin:float array ->
  t_busy:float array ->
  t_end:float array ->
  int ->
  int
(** {!process} with the cause given by id ([-1] for ticks) and its
    instants at [t_begin.(i)], [t_busy.(i)] and [t_end.(i)]. *)

val set_current_id : t -> int -> unit
(** {!set_current} by span id; [-1] = none. *)

val mark : t -> node:int -> time:float -> string -> unit
(** Record an instantaneous annotation, attached to the current span. *)

val set_current : t -> span option -> unit
(** Install the span whose handler body is executing; sends and marks
    inside it pick it up as their parent.  The network brackets every
    handler invocation with this. *)

val set_sink : t -> unit
(** Nominate the current span as the DAG's sink — the event whose
    completion time the critical path explains (the election). *)

val sink : t -> span option

(** {2 Accessors} *)

val span_id : span -> int
val lamport : span -> int
val label : span -> string
val span_begin : span -> float
val span_end : span -> float
val parents : span -> span list
val shape : span -> shape

val spans : t -> span list
(** All spans, in recording order. *)

type mark_record = private {
  m_time : float;
  m_node : int;
  m_label : string;
  m_parent : span option;
}

val marks : t -> mark_record list
(** All marks, in recording order. *)

(** {2 Export} *)

val output_trace_json : ?name:string -> out_channel -> t -> unit
(** Export the DAG in Chrome trace-event JSON (the format Perfetto and
    [chrome://tracing] load): process spans as complete ("X") events on
    per-node tracks, transit spans on per-link tracks, marks as instant
    ("i") events, and a flow pair ("s" at the send span / "f" at the
    delivery, sharing the transit span's id) for every delivered message.
    Timestamps are microseconds: one simulated time unit maps to one
    second.  One event object per line, so flow/span classes are
    countable with text tools. *)
