(** Deterministic fault-injection scenarios.

    A scenario is a value describing {e perturbations} of a network
    configuration: a time-varying link-loss schedule, delay episodes
    (overlaid on every link's delay model via {!Delay_model.modulated}),
    crash events with optional rejoins (crash-recovery: the node comes
    back with its protocol state reset) and link outage episodes (the
    topology itself rewrites over time).  Scenario construction is driven
    by a dedicated RNG derived from [seed] through a salt, never by a
    simulation stream — enabling a fault therefore {e never} perturbs any
    unrelated random draw, and the same [seed] always produces the same
    scenario.

    Scenarios compose: {!compose} unions episodes, crashes, rejoins and
    link outages and combines loss schedules as independent drop
    sources. *)

type t = {
  label : string;
  loss_schedule : (float -> float) option;
  episodes : Delay_model.episode array;
  crashes : (int * float) list;
  link_downs : (int * float * float) list;
      (** [(link, down_at, up_at)] outage episodes, [up_at > down_at] *)
  revivals : (int * float) list;
      (** [(node, rejoin_at)] crash-recovery events; each node listed here
          must also appear in [crashes] with an earlier time *)
  truncated : int;
      (** (estimated) number of fault events the generation cap dropped;
          [0] on every plausible request.  Scenario timelines are bounded
          by a cap {e derived from the requested horizon and rate} (four
          times the expected arrival count, plus slack, under an absolute
          ceiling) — it can only bind when the request itself asks for
          millions of events, and then the overflow is counted here and
          emitted as the
          ["faults/episodes_truncated"] metric by the runner, instead of
          being dropped silently.  {!compose} sums it. *)
}

val none : t
(** The empty scenario: applying it changes nothing. *)

val compose : t -> t -> t
(** Union of both scenarios.  The combined loss schedule treats the
    operands as independent drop sources ([1-(1-f)(1-g)]) and validates
    each operand's output is a probability in [\[0,1]] at sample time —
    out-of-range operands can combine into an in-range product, which a
    downstream sample check could never catch. *)

val apply_delay : t -> Delay_model.t -> Delay_model.t
(** Overlay this scenario's delay episodes on a link's delay model. *)

val of_string :
  seed:int -> n:int -> delta:float -> string -> (t, [ `Msg of string ]) result
(** Parse a CLI scenario name: one of ["none"], ["bursty-loss"],
    ["delay-spike"], ["heavy-tail"], ["crash"], ["rejoin"], ["churn"], a
    parameterized form mirroring scenario labels ([crash(3@2)],
    [rejoin(3@2:5)], [link-down(0@1:4)], [churn(0.2)]) or any
    ['+']-separated composition of those ([bursty-loss+crash]) —
    instantiated for a run with [n] nodes, expected delay [delta] and the
    given seed (episode trains cover a horizon of [200 * n * delta];
    plain ["crash"] kills node [n/2] at time [n * delta]; plain
    ["rejoin"] additionally revives it at [2n * delta]; plain ["churn"]
    uses rate 0.1).  Parsing is a left inverse of the [label] field:
    [(of_string (of_string s).label).label] = [(of_string s).label].

    The generators behind the names: ["bursty-loss"] alternates Exp(10δ)
    quiet gaps with Exp(5δ) bursts of 40% link loss; ["delay-spike"]
    multiplies delays by ~15–35× over Exp(3δ) episodes Exp(25δ) apart;
    ["heavy-tail"] draws each episode's slowdown from a heavy-tailed
    (infinite variance) distribution.  ["rejoin"] revives the node with
    its initial protocol state; messages addressed to it while down are
    dropped and accounted as crash drops.  ["link-down"] drops messages
    sent on the link during the outage and those in flight when it goes
    down, accounted as link drops.  ["churn(r)"] takes a uniform link
    down for Exp(2δ) (two thirds of events) or crash-and-rejoins a uniform
    node for Exp(3δ) (one third), with Exp(δ/r) gaps; per-entity episodes
    never overlap, and [r = 0] yields a labelled no-op.  It owns RNG salt
    4. *)
