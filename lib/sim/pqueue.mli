(** Structure-of-arrays binary min-heap keyed by [(priority, sequence)].

    Ties on the float priority are broken by an insertion sequence number so
    that extraction order is deterministic — a requirement for reproducible
    simulation: two events scheduled for the same instant always fire in
    scheduling order.

    The heap is monomorphic: payloads are [int] arena indices (see
    {!Engine}'s event arena).  Priorities live in a flat [float array],
    sequence numbers and payloads in [int array]s — no per-entry record, no
    option box, and the hot operations ({!add_at}, {!pop_value},
    {!min_value}) neither allocate nor box a float across the module
    boundary. *)

type t

val create : unit -> t

val add_at : t -> times:float array -> seq:int -> int -> unit
(** [add_at t ~times ~seq v] inserts [v] with priority [times.(v)], read
    directly from the caller's flat array so no float is boxed at the call
    boundary.  [v] must be a valid index into [times] and [times.(v)] must
    not be NaN — the engine guarantees both at scheduling (arena slots
    index the arena's time array), so neither is re-checked here. *)

val min_value : t -> int
(** Payload of the minimum element without removing it; [-1] when empty.
    Allocation-free. *)

val pop_value : t -> int
(** Remove the minimum element and return its payload only; [-1] when
    empty.  Allocation-free. *)

val clear : t -> unit
(** Empty the heap in O(1), keeping its capacity for the entries that
    follow.  Entries are flat floats and ints, so nothing else is kept
    alive. *)
