(** Runtime invariant oracle: a sink for structured invariant violations.

    Monitors (see {!Abe_net.Monitor} and the checks in
    {!Abe_core.Runner}) observe a simulation and {!reportf} every invariant
    breach with its time, subject (node/link) and context, instead of
    letting a broken run silently produce wrong statistics.  An oracle with
    no {!violations} certifies the invariants it was wired to check for
    that execution.

    Reporting never raises and never perturbs the simulation: an oracle is
    pure bookkeeping, so enabling checks cannot change any random draw or
    event ordering. *)

type violation = {
  time : float;      (** simulation time of the breach *)
  invariant : string;(** short invariant name, e.g. ["unique-leader"] *)
  subject : string;  (** what broke, e.g. ["node 3"] or ["link 2"] *)
  detail : string;   (** human-readable context *)
}

type t

val create : unit -> t
(** Fresh oracle.  The first 200 violations are stored; later ones are
    dropped. *)

val reportf :
  t -> time:float -> invariant:string -> subject:string ->
  ('a, Format.formatter, unit, unit) format4 -> 'a
(** Report a violation, with a format string for the detail. *)

val violations : t -> violation list
(** Stored violations in report order; [[]] certifies the invariants the
    oracle was wired to check. *)

val pp_violation : Format.formatter -> violation -> unit
