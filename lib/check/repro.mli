(** Repro artifacts: serialised counterexamples.

    An artifact pins down one violating execution completely: the run
    configuration (enough to rebuild the {!Abe_core.Runner.config} from the
    CLI), the schedule deviations (see {!Schedulers.deviations}), any
    slow-link overrides of the delay-quantile adversary, and the name of
    the violated invariant.  [abe-sim replay FILE] re-executes it
    byte-identically.

    On disk an artifact is JSON Lines:

    - a header object
      [{"kind":"abe-repro","version":1,"mode":...,"seed":...,...}] carrying
      every configuration field below (floats printed with [%.17g], so the
      round-trip is exact);
    - one [{"kind":"choice","at":N,"pick":N}] object per schedule
      deviation, in increasing ordinal order;
    - one [{"kind":"slow-link","link":N}] object per slowed link;
    - a final [{"kind":"end","choices":N,"slow_links":N}] object whose
      counts must match the body — a truncated file is rejected. *)

type t = {
  mode : string;        (** exploration mode that found it: ["fuzz"],
                            ["exhaustive"] or ["quantile"] *)
  seed : int;           (** simulation seed *)
  n : int;
  a0 : float;
  delta : float;
  gamma : float;
  drift : float;        (** clock drift ratio, CLI [--drift] *)
  delay : string;       (** delay kind, CLI [--delay] syntax *)
  fault : string;       (** fault scenario name, CLI [--fault] syntax *)
  forwarding : string;  (** ["paper"] or ["stale-max"] *)
  window : float;       (** scheduler commutation window *)
  tail : float;         (** quantile delay multiplier; [0.] when unused *)
  invariant : string;   (** violated invariant, e.g. ["hop-soundness"] *)
  fairness : int;
      (** liveness fairness bound (engine events per schedule) in force
          when the violation was found; [0] = none.  Written to the
          header only when positive, and optional on parse, so safety
          artifacts — and artifacts from before the field existed —
          round-trip unchanged. *)
  deviations : (int * int) list;
  slow_links : int list;
}

val to_file : string -> t -> unit

val of_file : string -> (t, string) result
(** Parse an artifact; any problem — unreadable file, malformed JSON,
    missing fields, wrong kind/version, count mismatch against the end
    marker — is a one-line [Error] naming the offending line. *)

val of_lines : string list -> (t, string) result
(** {!of_file} on in-memory lines (blank lines are ignored). *)

val pp : Format.formatter -> t -> unit
