(** Bounded execution traces.

    A trace is an append-only log of timestamped structured entries with
    a hard capacity; once full, the oldest entries are discarded (keeping
    the tail of the execution, which is usually what matters when
    debugging a non-terminating run).  Tracing is optional and cheap to
    disable: a disabled trace drops entries without formatting them.

    Entries are structured — an event [kind], the emitting [source]
    (node, link or the simulator itself) and a free-form payload — so a
    trace can be exported as JSON Lines for external analysis as well as
    pretty-printed. *)

type t

(** Component that emitted an entry. *)
type source =
  | Node of int
  | Link of int
  | Sim  (** the simulator / harness itself *)

type entry = {
  seq : int;        (** 0-based index in recording order, monotone across
                        entries dropped by the capacity bound *)
  time : float;
  kind : string;    (** event kind: a message's ["send"], ["recv"],
                        ["loss"], ["link-drop"] or ["crash-drop"] (the
                        last three with a [Link] source), or a
                        harness's ["note"] and the like *)
  source : source;
  message : string; (** human-readable payload *)
}

val create : ?capacity:int -> enabled:bool -> unit -> t
(** Default capacity: 10_000 entries. *)

val enabled : t -> bool

val record : t -> time:float -> ?kind:string -> source:source -> string -> unit
(** Append an entry (no-op when disabled).  Default [kind]: ["note"]. *)

val recordf :
  t ->
  time:float ->
  ?kind:string ->
  source:source ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** Formatted variant; the format arguments are not evaluated when the
    trace is disabled. *)

val length : t -> int
val dropped : t -> int
(** Number of entries discarded due to the capacity bound. *)

val entries : t -> entry list
(** Entries in chronological (= recording) order, collected into a list —
    for tests and small traces.  {!pp} and the JSONL exports stream over
    the buffer instead. *)

val pp : Format.formatter -> t -> unit

val output_jsonl : out_channel -> t -> unit
(** Export as JSON Lines: one object per entry, in order, with fields
    ["seq"], ["time"], ["kind"], ["node"]/["link"]/["source"] and
    ["payload"]; if the capacity bound dropped entries, a final object
    [{"kind":"truncated","dropped":N}] records how many. *)

val to_jsonl : t -> string
(** Same serialisation as {!output_jsonl}, as a string. *)

val clear : t -> unit
