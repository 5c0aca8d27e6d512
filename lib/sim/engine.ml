(* The event store is an int-indexed arena in structure-of-arrays layout:
   timestamps in a flat [float array], actions in a parallel closure array,
   and tag/eseq/lamport/footprint in [int array]s, with freed slots
   recycled through a freelist ([ev_next]).  The priority queue holds arena
   indices only (see Pqueue), so the hot loop moves nothing but immediates
   and flat floats: executing one event on the fast path allocates nothing.

   Pending events live in one of two places, each ordered by
   [(time, seq)].  An event whose time is at least that of the run's tail
   is appended to the run, a FIFO ring of arena indices: the tick chains
   of a network are such a stream, its first round scheduled in instant
   order and every later round of equal-rate clocks rescheduled in that
   order.  A message arrival ([schedule_arrival]) never joins the run,
   since its random instant would move the tail past a round still being
   rescheduled.  Every other event goes into the heap.  The run needs no ordering work: run appends never go
   back in time and [seq] rises, so its entries are appended in ascending
   [(time, seq)] order.  Every pop ([pop_slot], and [min_slot] for the
   scheduler's candidate grab) takes the lesser of the run head and the
   heap minimum on the full key, so the execution order is exactly that
   of a single heap — including for events put back into the heap by a
   budget or a scheduler.

   [run] dispatches once per call between two loops: the fast loop, used
   when no metrics registry, causal recorder or scheduler is attached,
   performs no per-event observation branches at all; the observed loop
   executes every event with the metrics tally, the causal announcement
   and the scheduler's choice.  Both pop in identical [(time, seq)] order,
   so executions are byte-identical across loop choices.  An action may
   also take the next pop early for a follow-up at the current instant
   ([claim_now]): such an event is counted where the loop would count it
   but never enters the run or the heap, so the loop saves a pass.

   Before each pop, and in [claim_now], the engine compares [executed]
   with one integer, the gate.  Below it no budget test can end the run:
   [stop] closes the gate, it never lies past [limit_events], and with a
   wall deadline it lies at the next multiple of 1024, where the deadline
   probe falls.  At or past it the stop, event-limit and deadline tests
   run in that order ([over_budget]) and re-arm it; [run] closes it on
   entry.  The metrics
   tally costs one array increment per event (a count per queue depth;
   the executed count is the engine's own), and [run] folds it into the
   registry on its way out, returning or raising. *)

type candidate = {
  c_time : float;
  c_foot : int;
}

type scheduler = {
  window : float;
  choose : now:float -> state_digest:int -> candidate array -> int;
}

type outcome =
  | Drained
  | Stopped
  | Hit_time_limit
  | Hit_event_limit
  | Hit_wall_deadline

type counters = {
  executed : int;
  max_queue_depth : int;
  wall_time : float;
  heap_inserts : int;
}

(* Pre-resolved metric handles, so folding the tally never touches the
   registry's name table. *)
type instruments = {
  m_executed : Metrics.counter;
  m_queue_depth : Metrics.histogram;
}

let null_action () = ()

(* A FIFO ring buffer of arena slots: capacity a power of two, live
   entries at [head ..] (mod capacity). *)
type ring = {
  mutable slots : int array;
  mutable head : int;
  mutable len : int;
}

let ring () = { slots = [||]; head = 0; len = 0 }

let clear_ring r =
  r.head <- 0;
  r.len <- 0

let grow_ring r =
  let old = Array.length r.slots in
  let slots = Array.make (max 16 (2 * old)) 0 in
  for k = 0 to r.len - 1 do
    slots.(k) <- r.slots.((r.head + k) land (old - 1))
  done;
  r.slots <- slots;
  r.head <- 0

let[@inline] push r slot =
  if r.len = Array.length r.slots then grow_ring r;
  Array.unsafe_set r.slots
    ((r.head + r.len) land (Array.length r.slots - 1))
    slot;
  r.len <- r.len + 1

let[@inline] peek r = Array.unsafe_get r.slots r.head

let[@inline] drop r =
  r.head <- (r.head + 1) land (Array.length r.slots - 1);
  r.len <- r.len - 1

type t = {
  queue : Pqueue.t;
  run : ring;   (* events appended in time order *)
  run_tail : float array;  (* length 1: time of the last run append;
                              [neg_infinity] after a reset *)
  (* Event arena (SoA).  All arrays share the same capacity. *)
  mutable ev_time : float array;
  mutable ev_action : (unit -> unit) array;
  mutable ev_tag : int array;
  mutable ev_eseq : int array;     (* the (priority, seq) key at enqueue *)
  mutable ev_lamport : int array;  (* 0 without a causal recorder *)
  mutable ev_foot : int array;     (* footprint bitmask; 0 = unknown *)
  mutable ev_next : int array;     (* freelist link; -1 terminates *)
  mutable free_head : int;         (* -1 when the arena is full *)
  clock : float array;  (* length 1: a flat cell so advancing the virtual
                           clock never boxes a float *)
  at : float array;     (* length 1: [schedule]/[schedule_at]'s target
                           time, so [schedule_from] reads it from a flat
                           array *)
  mutable seq : int;
  mutable executed : int;
  mutable live : int;  (* pending events *)
  mutable max_depth : int;  (* high-water mark of [live] *)
  mutable heap_inserts : int;
  mutable wall : float;     (* host seconds accumulated inside [run] *)
  mutable stop_requested : bool;
  mutable gate : int;       (* [executed] below it: no stop requested, the
                               event budget not spent and no deadline
                               probe due; see [over_budget] *)
  mutable running : bool;   (* inside [run] *)
  mutable digest_source : (unit -> int) option;
  (* Hooks and budgets: installed by every [create], pooled or fresh. *)
  mutable instruments : instruments option;
  (* The metrics tally since the last fold: [depths.(d)] events fired with
     [d] events pending, and [folded] is [executed] at the last fold. *)
  mutable depths : int array;
  mutable folded : int;
  mutable scheduler : scheduler option;
  mutable causal : Causal.t option;
  mutable limit_time : float;
  mutable limit_events : int;
  mutable wall_deadline : float;
}

(* An engine with no events, no capacity and no hooks; [reset] makes it
   the engine [create] promises. *)
let allocate () =
  { queue = Pqueue.create ();
    run = ring ();
    run_tail = [| neg_infinity |];
    ev_time = [||];
    ev_action = [||];
    ev_tag = [||];
    ev_eseq = [||];
    ev_lamport = [||];
    ev_foot = [||];
    ev_next = [||];
    free_head = -1;
    clock = [| 0. |];
    at = [| 0. |];
    seq = 0;
    executed = 0;
    live = 0;
    max_depth = 0;
    heap_inserts = 0;
    wall = 0.;
    stop_requested = false;
    gate = 0;
    running = false;
    digest_source = None;
    instruments = None;
    depths = [||];
    folded = 0;
    scheduler = None;
    causal = None;
    limit_time = infinity;
    limit_events = max_int;
    wall_deadline = infinity }

(* Back to virtual time 0 with nothing pending, keeping the capacity of
   the arena, the heap and the run.  Every slot goes back on the
   freelist and its action is dropped. *)
let reset t =
  t.free_head <- -1;
  for slot = Array.length t.ev_next - 1 downto 0 do
    (* Lowest index first, as a fresh arena hands them out. *)
    t.ev_next.(slot) <- t.free_head;
    t.free_head <- slot
  done;
  (* One fill instead of a write barrier per pending slot. *)
  Array.fill t.ev_action 0 (Array.length t.ev_action) null_action;
  Pqueue.clear t.queue;
  clear_ring t.run;
  t.run_tail.(0) <- neg_infinity;
  t.clock.(0) <- 0.;
  t.seq <- 0;
  t.executed <- 0;
  t.folded <- 0;
  t.live <- 0;
  t.max_depth <- 0;
  t.heap_inserts <- 0;
  t.wall <- 0.;
  t.stop_requested <- false;
  t.gate <- 0;
  t.running <- false;
  t.digest_source <- None

let create ?reuse ?metrics ?scheduler ?causal ?(limit_time = infinity)
    ?(limit_events = max_int) ?(wall_deadline = infinity) () =
  if not (limit_time > 0.) then invalid_arg "Engine.create: limit_time must be positive";
  if limit_events <= 0 then invalid_arg "Engine.create: limit_events must be positive";
  if Float.is_nan wall_deadline then
    invalid_arg "Engine.create: wall_deadline must not be NaN";
  Option.iter
    (fun s ->
       if not (s.window >= 0. && Float.is_finite s.window) then
         invalid_arg "Engine.create: scheduler window must be finite and >= 0")
    scheduler;
  let t = match reuse with Some t -> t | None -> allocate () in
  reset t;
  t.instruments <-
    Option.map
      (fun m ->
         { m_executed = Metrics.counter m "engine/executed";
           m_queue_depth = Metrics.histogram m "engine/queue_depth" })
      metrics;
  t.scheduler <- scheduler;
  t.causal <- causal;
  t.limit_time <- limit_time;
  t.limit_events <- limit_events;
  t.wall_deadline <- wall_deadline;
  t

(* Inlined, so a caller in another module copies the instant into its own
   flat array without boxing it (release builds; the dev profile's
   [-opaque] inlines nothing across modules). *)
let[@inline] now t = t.clock.(0)

let grow_arena t =
  let old = Array.length t.ev_next in
  let cap = max 64 (2 * old) in
  let time = Array.make cap 0. in
  Array.blit t.ev_time 0 time 0 old;
  t.ev_time <- time;
  let action = Array.make cap null_action in
  Array.blit t.ev_action 0 action 0 old;
  t.ev_action <- action;
  let copy_int src fill =
    let a = Array.make cap fill in
    Array.blit src 0 a 0 old;
    a
  in
  t.ev_tag <- copy_int t.ev_tag (-1);
  t.ev_eseq <- copy_int t.ev_eseq 0;
  t.ev_lamport <- copy_int t.ev_lamport 0;
  t.ev_foot <- copy_int t.ev_foot 0;
  t.ev_next <- copy_int t.ev_next (-1);
  (* Chain the new slots into the freelist, lowest index first. *)
  for i = cap - 1 downto old do
    t.ev_next.(i) <- t.free_head;
    t.free_head <- i
  done

(* Arena slots handed around internally (freelist heads, queue pops) are
   within capacity by construction, so arena accesses on the hot path skip
   the bounds checks.  The small helpers of every schedule and pop (these,
   the rings', [measure] and [Pqueue.min_value]) are [@inline]: without
   flambda each would otherwise be a call, a few per tick. *)

let[@inline] alloc_slot t =
  if t.free_head < 0 then grow_arena t;
  let slot = t.free_head in
  t.free_head <- Array.unsafe_get t.ev_next slot;
  slot

(* Return an executed slot to the freelist.  The action stays in the slot
   until the slot is reused or [release_actions] drops it: an arena that
   outlives its runs sits in the major heap, where every pointer store
   pays the write barrier, and the next [schedule] nearly always reuses
   the slot at once (the freelist is LIFO). *)
let free_slot t slot =
  Array.unsafe_set t.ev_next slot t.free_head;
  t.free_head <- slot

(* Drop the actions left in free slots, so that a closure — and any
   message payload it captured — is collectable once [run] has returned,
   not pinned until its slot happens to be recycled.  A slot already
   cleared takes no store: each one pays the write barrier. *)
let release_actions t =
  let slot = ref t.free_head in
  while !slot >= 0 do
    if Array.unsafe_get t.ev_action !slot != null_action then
      Array.unsafe_set t.ev_action !slot null_action;
    slot := Array.unsafe_get t.ev_next !slot
  done

(* [(time, seq)] of slot [a] orders before that of slot [b]. *)
let[@inline] before t a b =
  let ta = Array.unsafe_get t.ev_time a and tb = Array.unsafe_get t.ev_time b in
  ta < tb
  || (ta = tb && Array.unsafe_get t.ev_eseq a < Array.unsafe_get t.ev_eseq b)

(* The earlier of slot [best] ([-1] = none) and the head of ring [r]. *)
let[@inline] ring_min t best r =
  if r.len = 0 then best
  else
    let s = peek r in
    if best >= 0 && before t best s then best else s

(* The earliest pending slot, run and heap merged, without removing it;
   [-1] when both are empty. *)
let min_slot t = ring_min t (Pqueue.min_value t.queue) t.run

(* Remove and return the earliest pending slot ([-1] when empty). *)
let pop_slot t =
  let run = t.run in
  let h = Pqueue.min_value t.queue in
  if run.len > 0 && (h < 0 || before t (peek run) h) then begin
    let r = peek run in
    drop run;
    r
  end
  else Pqueue.pop_value t.queue

(* Every event that waits in the heap goes in here, counted. *)
let[@inline] heap_add t ~seq slot =
  t.heap_inserts <- t.heap_inserts + 1;
  Pqueue.add_at t.queue ~times:t.ev_time ~seq slot

(* Every scheduling entry point ends here.  The time is read from a flat
   array so that no float crosses a call boundary boxed.  [onto_run] is
   false for message arrivals, which never join the run (see above). *)
let[@inline] enqueue t ~onto_run ~tag ~footprint ~times i action =
  let time = times.(i) in
  let clock = Array.unsafe_get t.clock 0 in
  if not (time >= clock) && (Float.is_nan time || t.scheduler == None) then
    invalid_arg "Engine.schedule_at: time must be >= now";
  let lamport =
    match t.causal with
    | None -> 0
    | Some c -> Causal.scheduling_lamport c
  in
  let slot = alloc_slot t in
  (* A chain's reschedule nearly always gets back the slot its own event
     just freed, closure included (the freelist is LIFO and [free_slot]
     keeps the action), so the store and its write barrier are skipped
     then, as [Network]'s [set_state] skips an unchanged state. *)
  if Array.unsafe_get t.ev_action slot != action then
    Array.unsafe_set t.ev_action slot action;
  Array.unsafe_set t.ev_tag slot tag;
  Array.unsafe_set t.ev_foot slot footprint;
  Array.unsafe_set t.ev_eseq slot t.seq;
  Array.unsafe_set t.ev_lamport slot lamport;
  let due_now = not (time > clock) in
  (* Due now, or — under a reordering scheduler, whose clock may have
     raced past a time computed from a deferred event — already overtaken:
     the event fires as soon as possible instead of in the past. *)
  if due_now then Array.unsafe_set t.ev_time slot clock
  else Array.unsafe_set t.ev_time slot time;
  if onto_run
  && Array.unsafe_get t.ev_time slot >= Array.unsafe_get t.run_tail 0
  then begin
    Array.unsafe_set t.run_tail 0 (Array.unsafe_get t.ev_time slot);
    push t.run slot
  end
  else heap_add t ~seq:t.seq slot;
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  if t.live > t.max_depth then t.max_depth <- t.live

let schedule_from t ~tag ~footprint ~times i action =
  enqueue t ~onto_run:true ~tag ~footprint ~times i action

let schedule_arrival t ~tag ~footprint ~times i action =
  enqueue t ~onto_run:false ~tag ~footprint ~times i action

let schedule_at t ~time action =
  t.at.(0) <- time;
  schedule_from t ~tag:(-1) ~footprint:0 ~times:t.at 0 action

let schedule t ~delay action =
  if not (delay >= 0. && Float.is_finite delay) then
    invalid_arg "Engine.schedule: delay must be non-negative and finite";
  t.at.(0) <- t.clock.(0) +. delay;
  schedule_from t ~tag:(-1) ~footprint:0 ~times:t.at 0 action

let stop t =
  t.stop_requested <- true;
  t.gate <- 0

let set_digest_source t f = t.digest_source <- Some f

let grow_depths t depth =
  let depths = Array.make (max 64 (2 * depth)) 0 in
  Array.blit t.depths 0 depths 0 (Array.length t.depths);
  t.depths <- depths

(* Tally one executed event; [depth] is the pending-event count at the
   instant the event fired. *)
let[@inline] measure t ~depth =
  match t.instruments with
  | None -> ()
  | Some _ ->
    if depth >= Array.length t.depths then grow_depths t depth;
    t.depths.(depth) <- t.depths.(depth) + 1

(* Move the tally into the registry and clear it. *)
let fold_metrics t =
  match t.instruments with
  | None -> ()
  | Some i ->
    if t.executed > t.folded then begin
      Metrics.incr ~by:(t.executed - t.folded) i.m_executed;
      t.folded <- t.executed;
      Metrics.observe_int_counts i.m_queue_depth t.depths;
      Array.fill t.depths 0 (Array.length t.depths) 0
    end

(* Tell the span recorder that an engine event is executing, so spans it
   records inherit the event's Lamport time. *)
let announce t slot =
  match t.causal with
  | None -> ()
  | Some c -> Causal.enter_event c ~lamport:t.ev_lamport.(slot)

(* Bound on the commutation-candidate set handed to a scheduler: keeps one
   decision O(max_candidates log queue) even under a wide window. *)
let max_candidates = 64

(* Scheduler path: gather the pending events whose timestamps fall within
   [window] of the earliest one, let the scheduler choose among the
   per-tag-FIFO-eligible ones, and put the rest back untouched (original
   timestamp and sequence number, so their relative order is preserved).
   Returns the chosen slot and advances the clock to its execution time:
   its own timestamp, clamped to the (monotone) clock. *)
let choose_from t sched slot0 =
  let t0 = t.ev_time.(slot0) in
  let bound = t0 +. sched.window in
  let rec grab acc count =
    if count >= max_candidates then List.rev acc
    else
      let s = min_slot t in
      if s < 0 || not (t.ev_time.(s) <= bound) then List.rev acc
      else begin
        ignore (pop_slot t);
        grab (s :: acc) (count + 1)
      end
  in
  let entries = Array.of_list (slot0 :: grab [] 1) in
  (* Eligibility: among candidates sharing a tag (>= 0), only the first —
     earliest (time, seq) — may fire, preserving per-class FIFO (per-link
     delivery order, per-node processing order).  Untagged events are
     unconstrained. *)
  let eligible =
    let keep = ref [] in
    Array.iteri
      (fun i s ->
         let blocked = ref false in
         if t.ev_tag.(s) >= 0 then
           for j = 0 to i - 1 do
             if t.ev_tag.(entries.(j)) = t.ev_tag.(s) then blocked := true
           done;
         if not !blocked then keep := i :: !keep)
      entries;
    Array.of_list (List.rev !keep)
  in
  let chosen_index =
    if Array.length eligible <= 1 then eligible.(0)
    else begin
      let candidates =
        Array.map
          (fun i ->
             let s = entries.(i) in
             { c_time = t.ev_time.(s); c_foot = t.ev_foot.(s) })
          eligible
      in
      let digest =
        match t.digest_source with None -> 0 | Some f -> f ()
      in
      let k = sched.choose ~now:t.clock.(0) ~state_digest:digest candidates in
      let k = if k < 0 || k >= Array.length eligible then 0 else k in
      eligible.(k)
    end
  in
  Array.iteri
    (fun i s ->
       if i <> chosen_index then
         heap_add t ~seq:t.ev_eseq.(s) s)
    entries;
  let slot = entries.(chosen_index) in
  t.clock.(0) <- Float.max t.clock.(0) t.ev_time.(slot);
  slot

(* The budget tests, in their order, for a pop or a claim at or past the
   gate: why the run ends, or [None] with the gate re-armed.  The deadline
   probe pays the [gettimeofday] syscall at most once per 1024 executed
   events, and never when no deadline is set; it runs before the pop, so
   an over-deadline run stops without consuming another event. *)
let over_budget t =
  if t.stop_requested then Some Stopped
  else if t.executed >= t.limit_events then Some Hit_event_limit
  else if
    t.wall_deadline < infinity
    && t.executed land 1023 = 0
    && Unix.gettimeofday () > t.wall_deadline
  then Some Hit_wall_deadline
  else begin
    t.gate <-
      (if t.wall_deadline < infinity then
         Int.min t.limit_events ((t.executed lor 1023) + 1)
       else t.limit_events);
    None
  end

(* The monomorphic fast loop: no metrics, causal recorder or scheduler —
   and therefore not a single observation branch per event.  Identical
   (time, seq) pop order to the observed loop, so outcomes are
   byte-identical; an over-budget event is re-enqueued under its original
   [eseq] so it is not demoted behind same-priority peers on resume. *)
let run_fast t =
  let rec loop () =
    match if t.executed < t.gate then None else over_budget t with
    | Some outcome -> outcome
    | None ->
      let slot = pop_slot t in
      if slot < 0 then Drained
      else begin
        let time = Array.unsafe_get t.ev_time slot in
        if time > t.limit_time then begin
          heap_add t ~seq:t.ev_eseq.(slot) slot;
          Hit_time_limit
        end
        else begin
          Array.unsafe_set t.clock 0 time;
          t.live <- t.live - 1;
          t.executed <- t.executed + 1;
          let action = Array.unsafe_get t.ev_action slot in
          free_slot t slot;
          action ();
          loop ()
        end
      end
  in
  loop ()

(* The observed loop, with or without a scheduler: the time budget is
   checked against the earliest pending timestamp, before any reordering,
   and a deferred event keeps its original queue key when put back.  The
   event that runs is the earliest slot itself, or the scheduler's choice
   among the candidates it heads, with the full observation surface. *)
let run_observed t =
  let rec loop () =
    match if t.executed < t.gate then None else over_budget t with
    | Some outcome -> outcome
    | None ->
      let slot0 = pop_slot t in
      if slot0 < 0 then Drained
      else if t.ev_time.(slot0) > t.limit_time then begin
        heap_add t ~seq:t.ev_eseq.(slot0) slot0;
        Hit_time_limit
      end
      else begin
        let slot =
          match t.scheduler with
          | None ->
            t.clock.(0) <- t.ev_time.(slot0);
            slot0
          | Some sched -> choose_from t sched slot0
        in
        t.live <- t.live - 1;
        t.executed <- t.executed + 1;
        measure t ~depth:t.live;
        announce t slot;
        let action = t.ev_action.(slot) in
        free_slot t slot;
        action ();
        loop ()
      end
  in
  loop ()

(* The next pop of either loop, taken early by the executing action for
   a follow-up it would schedule at the current instant as its last step.
   The follow-up would be the next event popped exactly when no stop or
   budget ends the loop first and no pending event precedes it: neither
   the run's head nor the heap's minimum due at this instant (a pending
   event is never due earlier).  A yes counts the
   follow-up as scheduled and popped at once — its sequence number, the
   depth it would have reached, its execution, and in the observed loop
   its depth tally and its Lamport announcement — and the caller runs it.
   Under a scheduler every pop is a decision the scheduler may own, so
   the answer is always no. *)
let claim_now t =
  t.running && t.scheduler == None
  && (t.executed < t.gate || Option.is_none (over_budget t))
  && begin
    let clock = Array.unsafe_get t.clock 0 in
    let run = t.run in
    (run.len = 0 || Array.unsafe_get t.ev_time (peek run) > clock)
    &&
    let h = Pqueue.min_value t.queue in
    h < 0 || Array.unsafe_get t.ev_time h > clock
  end
  && begin
    t.seq <- t.seq + 1;
    if t.live >= t.max_depth then t.max_depth <- t.live + 1;
    t.executed <- t.executed + 1;
    measure t ~depth:t.live;
    (match t.causal with
     | None -> ()
     | Some c -> Causal.enter_event c ~lamport:(Causal.scheduling_lamport c));
    true
  end

let run t =
  let started = Unix.gettimeofday () in
  t.stop_requested <- false;
  (* Closed, so the first pop runs the full tests, which arm it. *)
  t.gate <- 0;
  t.running <- true;
  let outcome =
    match
      if t.instruments == None && t.causal == None && t.scheduler == None then
        run_fast t
      else run_observed t
    with
    | outcome -> outcome
    | exception e ->
      let backtrace = Printexc.get_raw_backtrace () in
      t.running <- false;
      fold_metrics t;
      Printexc.raise_with_backtrace e backtrace
  in
  t.running <- false;
  fold_metrics t;
  release_actions t;
  t.wall <- t.wall +. (Unix.gettimeofday () -. started);
  outcome

let executed_events t = t.executed
let pending_events t = t.live
let max_queue_depth t = t.max_depth
let wall_time t = t.wall

let counters t =
  { executed = t.executed;
    max_queue_depth = t.max_depth;
    wall_time = t.wall;
    heap_inserts = t.heap_inserts }
