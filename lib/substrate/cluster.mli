(** Process plumbing of the real backend: one worker per node, each
    joined to the router by a Unix socketpair.

    A worker is an OCaml domain by default, a systhread for high-fanout
    load tests.  This module owns what every such run needs whatever it
    computes: the per-mode worker caps, the socketpairs, spawning with
    unwind on failure, and the final join that closes every descriptor.
    The worker and router loops of the paper's election are
    {!Elect_real}'s. *)

type spawn_mode =
  | Domains
      (** [Domain.spawn] per node: true parallelism, capped at 64 nodes
          (the OCaml runtime supports on the order of a hundred live
          domains, and a cluster needs one per node) *)
  | Threads
      (** systhreads: IO-bound workers, suited to many clusters; a sanity
          cap of 512 nodes *)

val open_fd_count : unit -> int option
(** Currently open file descriptors of the process (via [/proc/self/fd]);
    [None] where unavailable.  Used by leak regression tests. *)

val check_cap : spawn_mode -> int -> (unit, string) result
(** [Error] with an actionable one-line message when [n] workers exceed
    the mode's cap. *)

type t
(** [n] socketpairs and, once spawned, the workers on their ends. *)

val socketpairs : int -> (t, string) result
(** [n] fresh socketpairs, with SIGPIPE ignored so that writing into a
    finished worker's end cannot kill the process.  On failure the pairs
    already made are closed. *)

val worker_fd : t -> int -> Unix.file_descr
val router_fd : t -> int -> Unix.file_descr

val spawn : spawn_mode -> t -> (int -> unit) -> (unit, string) result
(** [spawn mode t body] runs [body i] in worker [i], one per pair.  If a
    spawn fails, the workers already live are sent [Shutdown], joined and
    every descriptor closed before the [Error] is returned, so a failed
    spawn leaks nothing. *)

val broadcast_shutdown : t -> unit
(** Write a [Shutdown] frame on every router end, ignoring ends whose
    worker has gone. *)

val join : t -> unit
(** Join every spawned worker, then close every descriptor. *)

val write_all : Unix.file_descr -> bytes -> unit
(** Write the whole buffer, retrying on [EINTR]. *)
