(** Itai–Rodeh leader election for anonymous, unidirectional, synchronous
    rings of known size [n] (reference [4] of the paper).

    Election proceeds in {e phases}.  Every active node draws a random
    identifier from [{1..n}] and sends a token [(phase, id, hop, bit)] around
    the ring.  Passive nodes relay tokens (incrementing [hop]).  An active
    node receiving a token compares [(phase, id)] lexicographically with its
    own: a larger token knocks it passive, a smaller one is purged, an equal
    one (an identifier tie, [hop < n]) is relayed with [bit = false].  A
    token returning to its originator ([hop = n]) with [bit] still [true]
    proves a unique maximum: leader.  With [bit = false] the maxima are tied
    and the tied nodes re-draw in the next phase.

    This is the algorithm against which the paper positions the ABE
    election: "efficiency comparable to the most optimal leader election
    algorithms known for anonymous, synchronous rings". *)

(** {1 Pure core}

    Exposed so the ABE-network adapter ({!Async_baselines}) executes the
    identical state machine; also convenient for unit tests. *)

type token = {
  phase : int;
  id : int;    (** random identifier in [1..n] *)
  hop : int;
  bit : bool;  (** [true] while no identifier tie has been observed *)
}

type phase_state =
  | Active of { phase : int; id : int }
  | Passive
  | Leader of { phase : int }

type reaction =
  | Relay of token   (** forward (hop incremented, possibly bit-flagged) *)
  | Launch of token  (** tie among the maxima: next phase begins *)
  | Won              (** own token returned unbeaten: leader *)
  | Discard          (** weaker or stale token: purge *)

val transition :
  n:int -> fresh_id:(unit -> int) -> phase_state -> token ->
  phase_state * reaction
(** One token receipt.  [fresh_id] draws a new random identifier when a new
    phase starts.  Requires FIFO delivery between consecutive active
    nodes. *)

type outcome = Sync_baseline.outcome = {
  elected : bool; leader : int option; leader_count : int;
  rounds : int; phases : int; messages : int }

val run : seed:int -> n:int -> unit -> outcome
(** One complete election on the synchronous ring ({!Sync_baseline}).
    Deterministic in [seed]. *)
