(* Structure-of-arrays binary min-heap: priorities in a flat [float array]
   (unboxed storage), sequence numbers and int payloads in parallel [int
   array]s.  Compared to the earlier ['a entry option array] representation
   this drops one record box and one option per element, and lets the hot
   operations run without allocating: sift compares read and write flat
   floats, [pop_value]/[min_value] return immediates, and [add_at] takes
   its priority from a caller-owned flat array instead of a boxed float
   argument. *)

type t = {
  mutable prio : float array;
  mutable seq : int array;
  mutable value : int array;
  mutable len : int;
}

let create () = { prio = [||]; seq = [||]; value = [||]; len = 0 }

(* Heap positions are internal invariants (always < [t.len] <= capacity),
   so the sift loops skip the bounds checks. *)

(* [(prio, seq)] at [i] orders before the pair at [j]. *)
let before t i j =
  let pi = Array.unsafe_get t.prio i and pj = Array.unsafe_get t.prio j in
  pi < pj || (pi = pj && Array.unsafe_get t.seq i < Array.unsafe_get t.seq j)

(* Sift the entry at [i] up by moving a hole: each level copies the
   parent down once, and the entry is written once where the hole stops —
   the same final layout as swapping level by level, for half the
   stores. *)
let sift_up t i =
  let p = Array.unsafe_get t.prio i and s = Array.unsafe_get t.seq i in
  let v = Array.unsafe_get t.value i in
  (* A loop, not a recursive closure: capturing [p] would box it. *)
  let hole = ref i and rising = ref true in
  while !rising && !hole > 0 do
    let parent = (!hole - 1) lsr 1 in
    let pp = Array.unsafe_get t.prio parent in
    if p < pp || (p = pp && s < Array.unsafe_get t.seq parent) then begin
      Array.unsafe_set t.prio !hole pp;
      Array.unsafe_set t.seq !hole (Array.unsafe_get t.seq parent);
      Array.unsafe_set t.value !hole (Array.unsafe_get t.value parent);
      hole := parent
    end
    else rising := false
  done;
  if !hole <> i then begin
    Array.unsafe_set t.prio !hole p;
    Array.unsafe_set t.seq !hole s;
    Array.unsafe_set t.value !hole v
  end

let grow t =
  let capacity = max 16 (2 * t.len) in
  let prio = Array.make capacity 0. in
  Array.blit t.prio 0 prio 0 t.len;
  t.prio <- prio;
  let seq = Array.make capacity 0 in
  Array.blit t.seq 0 seq 0 t.len;
  t.seq <- seq;
  let value = Array.make capacity 0 in
  Array.blit t.value 0 value 0 t.len;
  t.value <- value

let[@inline] add_at t ~times ~seq v =
  if t.len = Array.length t.prio then grow t;
  let i = t.len in
  Array.unsafe_set t.prio i (Array.unsafe_get times v);
  Array.unsafe_set t.seq i seq;
  Array.unsafe_set t.value i v;
  t.len <- i + 1;
  sift_up t i

let min_value t = if t.len = 0 then -1 else t.value.(0)

(* Bottom-up deletion: run a hole from the root down the min-child path to
   a leaf (one comparison and one element copy per level), then drop the
   displaced last element into the hole and sift it up.  In the typical
   discrete-event pattern — extract the minimum, insert a later timestamp —
   the displaced leaf belongs near the bottom anyway, so the up phase ends
   after ~1 comparison, where a classic top-down sift would pay two
   comparisons plus a three-array swap on every level.  Returns the final
   hole index. *)
let rec sift_hole_down t hole limit =
  let l = (2 * hole) + 1 in
  if l < limit then begin
    let r = l + 1 in
    let c = if r < limit && before t r l then r else l in
    Array.unsafe_set t.prio hole (Array.unsafe_get t.prio c);
    Array.unsafe_set t.seq hole (Array.unsafe_get t.seq c);
    Array.unsafe_set t.value hole (Array.unsafe_get t.value c);
    sift_hole_down t c limit
  end
  else hole

(* Remove the root and restore the heap.  Vacated slots hold only
   immediates, so nothing needs nulling for the GC (payload liveness is the
   arena's concern, see Engine). *)
let remove_root t =
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then begin
    let hole = sift_hole_down t 0 last in
    if hole <> last then begin
      Array.unsafe_set t.prio hole (Array.unsafe_get t.prio last);
      Array.unsafe_set t.seq hole (Array.unsafe_get t.seq last);
      Array.unsafe_set t.value hole (Array.unsafe_get t.value last);
      sift_up t hole
    end
  end

let[@inline] pop_value t =
  if t.len = 0 then -1
  else begin
    let v = Array.unsafe_get t.value 0 in
    remove_root t;
    v
  end

(* Entries are flat floats and immediates, so keeping the arrays retains
   nothing but their capacity. *)
let clear t = t.len <- 0
