(** Certification oracle for synchroniser executions: a TLA-style [Safety]
    predicate checked per event.

    A synchroniser simulates rounds; its two defining safety invariants are

    - {b round monotonicity}: every node enters pulses [1, 2, 3, ...] in
      order, never skipping or revisiting a round; and
    - {b bounded skew}: a payload for pulse [q] arrives while its receiver
      is within [skew_bound] pulses of [q].  For the message-driven
      synchronisers (α, β, γ) the bound is 1 on {e any} network: a node
      cannot leave pulse [q] before every pulse-[q] payload addressed to it
      has been acknowledged, so at delivery the receiver sits in pulse
      [q - 1] or [q].  The timeout-based ABD synchroniser enforces no such
      bound on ABE networks — that is Theorem 1's point — so it is
      certified for monotonicity only ([skew_bound = None]) while the
      observed maximum skew is still reported.

    The oracle is a read-only probe: the synchroniser run feeds it
    {!event}s and it accumulates {!Abe_sim.Oracle.violation}s, never
    perturbing the simulation.  One oracle certifies one run. *)

type event =
  | Pulse_entered of { node : int; pulse : int }
      (** the node's synchroniser advanced it into [pulse] (1-based) *)
  | Payload_received of {
      node : int;
      node_pulse : int;      (** receiver's pulse at the arrival instant *)
      payload_pulse : int;   (** pulse the payload was emitted in *)
    }

type t

val create : ?skew_bound:int -> n:int -> unit -> t
(** An oracle for an [n]-node run.  [skew_bound] enables the bounded-skew
    check at payload arrivals (use [1] for α/β/γ); omit it to check round
    monotonicity only.
    @raise Invalid_argument on [n < 1] or a negative bound. *)

val observe : t -> time:float -> event -> unit
(** Check one event, recording a violation if the invariant fails.  The
    pulse trace is updated even for a violating event, so one fault yields
    one violation rather than cascading. *)

val violations : t -> Abe_sim.Oracle.violation list
(** Violations in observation order: invariant ["round-monotonicity"] or
    ["bounded-skew"], subject ["node N"]. *)

val events_checked : t -> int
(** Total events observed — certification coverage denominator. *)

val max_skew : t -> int
(** Largest [|payload_pulse - node_pulse|] seen at any payload arrival
    (0 before the first arrival) — reported even when the bound check is
    disabled, so an ABD-on-ABE run shows {e how far} the hard-bound
    assumption was stretched. *)
