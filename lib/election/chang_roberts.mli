(** Chang–Roberts leader election on unidirectional rings {e with unique
    identifiers}.

    Every node sends its identifier around the ring; a node relays only
    identifiers larger than its own, purges smaller ones, and is elected
    when its own identifier returns.  Average message complexity is
    [n·H_n ≈ n ln n] over random identifier orderings ([Ω(n log n)] — the
    asynchronous-ring lower bound the paper contrasts with), worst case
    [O(n²)].

    Identifiers are a random permutation of [1..n] drawn from the seed, so
    repeated runs average over orderings. *)

(** {1 Pure core} *)

type state =
  | Contending of { id : int }  (** still a candidate *)
  | Relaying of { id : int }    (** beaten; relays larger identifiers *)
  | Leader of { id : int }

type reaction = Forward | Win | Drop

val transition : state -> int -> state * reaction
(** React to an incoming candidate identifier. *)

type outcome = Sync_baseline.outcome = {
  elected : bool; leader : int option; leader_count : int;
  rounds : int; phases : int; messages : int }

val run : seed:int -> n:int -> unit -> outcome
(** One complete election on the synchronous ring ({!Sync_baseline}).
    [phases] is always 0. *)
