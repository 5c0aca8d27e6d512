(** Saturation load: many concurrent real elections.

    A pool of [concurrency] runner threads drains a queue of [elections]
    independent elections, each executed as a thread-mode {!Elect_real}
    cluster (thread workers keep the total domain count flat — hundreds of
    concurrent clusters would blow the runtime's domain cap).  Reports
    sustained elections per second and the wall-latency tail, plus the
    process fd count before and after for leak gating. *)

type report = {
  n : int;
  elections : int;
  concurrency : int;
  seed : int;
  scale : float;
  completed : int;  (** runs that elected a leader *)
  failed : int;     (** runs that errored or timed out *)
  wall_seconds : float;
  elections_per_sec : float;
  lat_mean : float;  (** wall seconds per completed election *)
  lat_p50 : float;
  lat_p95 : float;
  lat_p99 : float;
  fd_before : int;  (** -1 where /proc/self/fd is unavailable *)
  fd_after : int;
}

val run :
  a0:float ->
  scale:float ->
  wall_timeout:float ->
  ?telemetry_out:out_channel ->
  n:int ->
  elections:int ->
  concurrency:int ->
  seed:int ->
  unit ->
  (report, string) result
(** With [telemetry_out], a sampler thread streams live progress as JSONL
    (one object per ~250 ms: [t_wall], [completed], [failed],
    [elections_per_sec], open [fd] count) plus a closing line after the
    pool joins. *)

val write_json : report -> string -> unit
(** Write the [abe-real-bench/v1] JSON artifact to a path (raises
    [Sys_error] on IO failure, for [guard_io] routing). *)

val pp_summary : Format.formatter -> report -> unit
(** Deterministic one-line summary (counts and leak delta only — no
    timings), pinnable by cram tests. *)
