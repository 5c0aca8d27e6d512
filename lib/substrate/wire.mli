(** Length-prefixed binary framing for the real-process substrate.

    Every frame on a worker<->router socket is
    [4-byte big-endian body length | body], where the body starts with a
    versioned header [magic 0xAB | version | kind] followed by the kind's
    fixed fields.  Integers travel as 8-byte big-endian two's complement,
    floats as the big-endian IEEE-754 image, payload strings with their own
    4-byte length.  The header is checked on every frame: a magic or
    version mismatch poisons the stream (there is no way to resynchronise a
    corrupt length prefix), so decoding reports an error rather than
    skipping bytes.

    Version 2 adds an optional trace-context extension to [Send] and
    [Deliver] — 25 bytes after the payload: tag [0x01], span id, Lamport
    clock, send timestamp — plus the [Telemetry] frame kind.  Version-1
    bodies (no extension) still decode; a partial or unknown extension is
    stream corruption and poisons the reader. *)

(** Trace context piggybacked on a data frame: the sending span's
    identity, the sender's Lamport clock at emission, and the send time
    in elapsed simulated units. *)
type trace = { span : int; lamport : int; at : float }

(** Control plane of a cluster.  [Send]/[Deliver] carry an opaque
    protocol-encoded payload: the codec is protocol-agnostic, the
    {!Cluster} functor owns payload encoding. *)
type frame =
  | Send of { link : int; payload : string; trace : trace option }
      (** worker -> router: emit on local out-link index [link] *)
  | Deliver of { link : int; payload : string; trace : trace option }
      (** router -> worker: delivery after emulated transit on link id
          [link]; [trace] identifies the transit span for causal
          reconnection *)
  | Stop of { node : int; at_units : float }
      (** worker -> router: request global stop (election reached) at
          elapsed simulated time [at_units] *)
  | Stats of { node : int; sent : int; recv : int; ticks : int; aux : int }
      (** worker -> router: final counters, sent once after [Shutdown] *)
  | Telemetry of { node : int; records : string }
      (** worker -> router: opaque span-record blob (see {!Telemetry}),
          drained before the final [Stats] *)
  | Shutdown  (** router -> worker: stop after sending [Stats] *)

val version : int
(** Wire format version carried in every header. *)

val min_version : int
(** Oldest version {!decode_body} still accepts. *)

val max_body : int
(** Upper bound on an accepted body length; a larger length prefix is
    treated as stream corruption. *)

val encode : frame -> bytes
(** Complete wire image: length prefix, header, body. *)

val decode_body : string -> (frame, string) result
(** Decode one frame body (without the length prefix).  Rejects bad magic,
    unknown version, unknown kind, truncated bodies, malformed trace
    extensions and trailing bytes. *)

(** {1 Stream reassembly}

    Sockets deliver byte runs, not frames; a [reader] buffers partial input
    per connection and yields complete frames. *)

type reader

val reader : unit -> reader

val feed : reader -> bytes -> int -> unit
(** [feed r buf len] appends the first [len] bytes of [buf]. *)

val next : reader -> (frame option, string) result
(** Next complete frame; [Ok None] when more input is needed.  An [Error]
    is sticky: the stream is corrupt and must be torn down. *)

val buffered : reader -> int
(** Bytes currently held (diagnostics). *)

val pp : Format.formatter -> frame -> unit
