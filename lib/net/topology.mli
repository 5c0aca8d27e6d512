(** Directed network topologies.

    A topology is an immutable directed graph over nodes [0 .. n-1].  Links
    are identified by a dense index so that per-link channel configuration
    (delay distribution, loss) can be stored in arrays.

    The paper's election algorithm runs on the {!ring} (unidirectional);
    the synchroniser experiments additionally use bidirectional rings and
    other standard families. *)

type link = {
  id : int;   (** dense link index, [0 .. link_count-1] *)
  src : int;
  dst : int;
}

type t

val create : nodes:int -> edges:(int * int) list -> t
(** Build a topology from directed edges.  Self-loops and duplicate edges
    are rejected. *)

val node_count : t -> int
val link_count : t -> int

val out_links : t -> int -> link array
(** Outgoing links of a node, ordered by destination insertion order.
    The returned array must not be mutated. *)

val in_links : t -> int -> link array
val link : t -> int -> link
(** Link by dense index. *)

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val links : t -> link array
(** All links ordered by index.  Do not mutate. *)

(** {1 Families} *)

val ring : int -> t
(** Unidirectional ring: node [i] links to [(i+1) mod n].  Requires
    [n >= 2].  Link [i] is the link out of node [i]. *)

val bidirectional_ring : int -> t
val line : int -> t
(** Bidirectional path [0 - 1 - ... - n-1]. *)

val star : int -> t
(** Node 0 is the hub; bidirectional spokes. *)

val complete : int -> t
val grid : rows:int -> cols:int -> t
(** Bidirectional 2-D mesh. *)

val hypercube : dim:int -> t
val random_tree : n:int -> rng:Abe_prob.Rng.t -> t
(** Uniform random attachment tree, bidirectional. *)

val erdos_renyi : n:int -> p:float -> rng:Abe_prob.Rng.t -> t
(** G(n,p) with bidirectional edges; the result may be disconnected —
    check with {!diameter}. *)

(** {1 Queries} *)

type spanning_tree = {
  root : int;
  parent : int array;    (** [parent.(root) = -1] *)
  children : int array array;
  depth : int array;     (** hop distance from the root *)
}

val bfs_spanning_tree : t -> root:int -> spanning_tree
(** Breadth-first spanning tree over the directed links.
    @raise Invalid_argument if some node is unreachable from [root]. *)


val diameter : t -> int option
(** Maximum directed hop distance; [None] if not strongly connected. *)
