(** Network-level invariant monitors over {!Network.observer} events.

    A monitor keeps its own independent event counts and checks, at every
    observed event:

    - {b conservation}: [sent = delivered + lost + crashed_drops +
      link_drops + in_flight] against the network's live statistics —
      links dying with messages in flight are tolerated because those
      drops are accounted ([link_drops]) at the instant they happen;
    - {b accounting}: the network's statistics agree with the monitor's
      independently counted events (a missed or double-counted event is
      caught even when the network's own equation still balances);
    - {b fifo} (when enabled): per-link delivered sequence numbers are
      strictly increasing;
    - {b clock-monotone} / {b clock-drift} (when a {!Clock.spec} is given):
      each node's local clock readings at tick processing are strictly
      increasing, and the observed rate between consecutive ticks lies in
      [\[s_low, s_high\]] (Definition 1.2; exact for linear clocks, modulo
      float rounding);
    - {b dynamic-class}: a [Static] network sees no topology event, below.

    Violations go to the supplied {!Abe_sim.Oracle}; monitoring never
    perturbs the simulation. *)

(** How dynamic the network is allowed to be — which topology invariants
    apply:

    - [Static]: the topology must never change.  Any [Link_down],
      [Link_up], [Revive] or [Link_drop] event is itself a
      {b dynamic-class} violation.  (Crash-stop was always allowed: it
      removes a node, not a link schedule.)
    - [Dynamic]: topology rewriting is expected (churn); only the
      accounting invariants apply — the graph may disconnect freely. *)
type dynamic_class =
  | Static
  | Dynamic

type t

val create :
  oracle:Abe_sim.Oracle.t ->
  ?clock:Clock.spec ->
  ?fifo:bool ->
  ?dynamic:dynamic_class ->
  nodes:int ->
  links:int ->
  unit ->
  t
(** [fifo] defaults to [false] (non-FIFO networks deliver out of order by
    design); pass the network's own [fifo] flag.  [clock] enables the drift
    checks and should be the network's [clock_spec].  [dynamic] defaults to
    [Static]. *)

val reset : t -> oracle:Abe_sim.Oracle.t -> ?clock:Clock.spec -> unit -> unit
(** Start a new run on the same network: the monitor reports to [oracle]
    and checks [clock] (none if omitted), as one just built by {!create}
    with its other arguments unchanged would.  Allocates nothing, so a
    pooled network can keep its monitor. *)

val observer : t -> Network.observer
(** The observer to pass to {!Network.Make.create}. *)

val check_quiescence :
  t -> time:float -> outcome:Abe_sim.Engine.outcome -> in_flight:int -> unit
(** End-of-run check: a {!Abe_sim.Engine.Drained} outcome with messages
    still in flight is a {b quiescence} violation (an interrupted run —
    stopped or budget-limited — is not). *)
