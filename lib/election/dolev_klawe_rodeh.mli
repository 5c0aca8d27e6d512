(** Dolev–Klawe–Rodeh leader election on unidirectional rings with unique
    identifiers — the classic {e deterministic} [O(n log n)] algorithm.

    Active nodes work in phases.  In a phase, every active node sends its
    current value, then relays the value it received, so each active node
    learns the values [v2, v1] of its two nearest active predecessors.  It
    survives the phase iff [v1] is a local maximum ([v1 > v2] and
    [v1 > cv]), in which case it adopts [v1].  At most half the active
    nodes survive each phase, giving at most [log2 n] phases of at most
    [2n] messages.  A node receiving its own current value back is the sole
    survivor and becomes leader (it holds the maximum identifier).

    Together with Chang–Roberts this exhibits the [Ω(n log n)]
    message-complexity class for rings with identities that the paper's ABE
    election undercuts with its average [O(n)]. *)

type outcome = Sync_baseline.outcome = {
  elected : bool; leader : int option; leader_count : int;
  rounds : int; phases : int; messages : int }

val run : seed:int -> n:int -> unit -> outcome
(** One complete election on the synchronous ring ({!Sync_baseline}). *)
