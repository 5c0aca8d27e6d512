open Abe_prob
open Abe_sim

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable lost : int;
  mutable crashed_drops : int;
  mutable link_drops : int;
  mutable ticks : int;
  sent_per_node : int array;
  delivered_per_node : int array;
}

type event =
  | Send of { link : Topology.link; seq : int }
  | Deliver of { link : Topology.link; seq : int; dst : int }
  | Loss of { link : Topology.link; seq : int }
  | Crash_drop of { link : Topology.link; seq : int; dst : int }
  | Link_drop of { link : Topology.link; seq : int }
  | Tick of { node : int }
  | Crash of { node : int }
  | Revive of { node : int }
  | Link_down of { link : Topology.link }
  | Link_up of { link : Topology.link }

type observer = at:float array -> stats:stats -> in_flight:int -> event -> unit

module type PROTOCOL = sig
  type state
  type message

  val pp_state : Format.formatter -> state -> unit
  val pp_message : Format.formatter -> message -> unit
end

(* The configuration does not depend on the protocol, so it is defined
   once and included in every functor application. *)
module Config = struct
  type config = {
    topology : Topology.t;
    delay_of_link : Topology.link -> Delay_model.t;
    proc_delay : Dist.t option;
    clock_spec : Clock.spec;
    fifo : bool;
    loss_schedule : (float -> float) option;
    crash_times : (int * float) list;
    revive_times : (int * float) list;
    link_downs : (int * float * float) list;
    ticks_enabled : bool;
  }

  let default_config ~topology ~delay =
    { topology;
      delay_of_link = (fun _ -> delay);
      proc_delay = None;
      clock_spec = Clock.perfect;
      fifo = false;
      loss_schedule = None;
      crash_times = [];
      revive_times = [];
      link_downs = [];
      ticks_enabled = true }
end

include Config

(* Ordering a run's first tick round.  Every node's first tick lands at a
   random instant (a uniform phase over its own rate), so [reset] orders
   the node ids by [(instant, id)] before scheduling them, and every tick
   of the round is appended to the engine's run.  A bucket sort into n
   buckets over [[min, max]] leaves only the order inside each bucket to
   settle: by insertion when it holds a few ids, as for spread-out
   instants, by heapsort when it holds more, as for instants clustered by
   widely spread clock rates.  Each instant is bucketed once, onto its
   bucket's list (a head per bucket, a link per id), and the lists are
   read out in bucket order.  Expected O(n), worst case O(n log n); the
   scratch arrays are the network's, so a warm reset allocates nothing
   here.  Top-level functions over the arrays, so that no closure is
   built per reset. *)

(* Node [a]'s first tick orders before node [b]'s. *)
let[@inline] tick_before (times : float array) a b =
  let ta = Array.unsafe_get times a and tb = Array.unsafe_get times b in
  ta < tb || (ta = tb && a < b)

let insertion_sort times order lo hi =
  for k = lo + 1 to hi - 1 do
    let v = order.(k) in
    let j = ref (k - 1) in
    while !j >= lo && tick_before times v order.(!j) do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- v
  done

(* Restore the max-heap order of [order.(lo) .. order.(lo + len - 1)]
   below heap position [root]. *)
let rec sift_down times order lo len root =
  let child = (2 * root) + 1 in
  if child < len then begin
    let child =
      if
        child + 1 < len
        && tick_before times order.(lo + child) order.(lo + child + 1)
      then child + 1
      else child
    in
    let v = order.(lo + root) in
    if tick_before times v order.(lo + child) then begin
      order.(lo + root) <- order.(lo + child);
      order.(lo + child) <- v;
      sift_down times order lo len child
    end
  end

let heap_sort times order lo hi =
  let len = hi - lo in
  for root = (len / 2) - 1 downto 0 do
    sift_down times order lo len root
  done;
  for last = len - 1 downto 1 do
    let v = order.(lo) in
    order.(lo) <- order.(lo + last);
    order.(lo + last) <- v;
    sift_down times order lo last 0
  done

(* The bucket of instant [x] among [n] over [[lo, lo + (n-1)/scale]]:
   monotone in [x], clamped against rounding. *)
let[@inline] bucket ~lo ~scale n x =
  let b = int_of_float ((x -. lo) *. scale) in
  if b < 0 then 0 else if b >= n then n - 1 else b

(* [order.(0 .. n-1)] := the ids [0 .. n-1] by [(times.(id), id)], with
   [heads] and [next] (length n each) as scratch.  The instants are finite
   and not NaN.  Every index is in range by construction (ids and buckets
   lie in [0, n), and exactly n ids are read out), so the loops skip the
   bounds checks. *)
let order_ticks times order heads next =
  let n = Array.length order in
  let lo = ref infinity and hi = ref neg_infinity in
  for id = 0 to n - 1 do
    let x = Array.unsafe_get times id in
    if x < !lo then lo := x;
    if x > !hi then hi := x
  done;
  let lo = !lo in
  let scale = if !hi > lo then float_of_int (n - 1) /. (!hi -. lo) else 0. in
  for b = 0 to n - 1 do
    Array.unsafe_set heads b (-1)
  done;
  (* In descending id order, so that each list reads in ascending id
     order. *)
  for id = n - 1 downto 0 do
    let b = bucket ~lo ~scale n (Array.unsafe_get times id) in
    Array.unsafe_set next id (Array.unsafe_get heads b);
    Array.unsafe_set heads b id
  done;
  let k = ref 0 in
  for b = 0 to n - 1 do
    let start = !k in
    let id = ref (Array.unsafe_get heads b) in
    while !id >= 0 do
      Array.unsafe_set order !k !id;
      incr k;
      id := Array.unsafe_get next !id
    done;
    let stop = !k in
    if stop - start > 16 then heap_sort times order start stop
    else if stop - start > 1 then insertion_sort times order start stop
  done

module Make (P : PROTOCOL) = struct
  type context = {
    node : int;
    n : int;
    out_degree : int;
    rng : Rng.t;
    now : unit -> float;
    local_time : unit -> float;
    send : int -> P.message -> unit;
    stop : unit -> unit;
  }

  type handlers = {
    init : context -> P.state;
    on_message : context -> P.state -> P.message -> P.state;
    on_tick : context -> P.state -> P.state;
  }

  include Config

  type node = {
    id : int;  (* its handler stream and clock live in [Links];
                  its protocol state in [t.states] *)
    mutable is_crashed : bool;
    mutable incarnation : int;
        (* bumped at every crash: node-local events (processing
           completions, tick chains) carry the incarnation they were
           scheduled under, and an event from a dead incarnation never
           reaches the revived node's fresh state *)
  }

  (* Pre-resolved metric handles: the send/deliver hot path must not pay
     a registry name lookup per message. *)
  type instruments = {
    m_sent : Metrics.counter;
    m_delivered : Metrics.counter;
    m_lost : Metrics.counter;
    m_crashed_drops : Metrics.counter;
    m_link_drops : Metrics.counter;
    m_ticks : Metrics.counter;
    m_latency : Metrics.histogram;           (* all links *)
    m_link_latency : Metrics.family;  (* by link id *)
    m_in_flight : Metrics.histogram;
  }

  (* Every pending handler execution is a {e job} in one pool: a message
     from its send to its completion, or a tick from its fire to its
     completion (Definition 1.3 bounds both by γ).  The pool is
     structure-of-arrays slots recycled through a freelist, each slot
     carrying preallocated closures (capturing only the network and the
     slot index): a message's arrival, a message's completion and a
     tick's completion, one per kind so that neither path branches on the
     kind.  A send therefore reuses a slot and schedules a pre-built
     closure instead of allocating a fresh closure over a fresh tuple of
     fields.  A completion that falls at its arrival or tick instant (every
     one at γ = 0) is offered to [Engine.claim_now] and, when the engine
     agrees, runs at once inside that event, not from the engine's lane.
     A claimed tick takes no slot at all: nothing of it outlives its fire
     event.  A claimed delivery keeps the slot its message travelled in.
     The pool is global, not per-link: its size tracks the
     high-water mark of pending jobs in the whole network, not
     [links x depth] (per-link pools would cost O(links) memory even on an
     idle ring of 10^6 nodes).

     With no hook attached the tick cycle allocates nothing.  A tick's
     instant, its completion instant and a message's arrival instant sit
     in flat arrays ([tick_time], [busy], [job_begin]) and reach the
     engine through [Engine.schedule_from] and the clock through
     [Clock.advance_tick], so no float is boxed on the way; node states
     sit in [states] with no option box; and hooks are matched in place,
     not through capturing [Option.iter] closures.  A message's delay is
     drawn into its job's [job_begin] ([Links.delay_into]), which then
     holds its arrival instant, so the message path boxes no float either
     where [Engine.now] inlines (release builds): with an immediate
     payload, such as the election's tokens, a hop allocates nothing.  An
     observed tick allocates nothing either: its event is built once per
     node ([tick_events]), and the instant and the clock reading reach
     the observer in the flat array [obs_at]. *)
  type t = {
    engine : Engine.t;
    mutable config : config;
    mutable handlers : handlers;
    nodes : node array;
    mutable states : P.state array; (* by node id; filled by [init] *)
    mutable contexts : context array;
    links : Topology.link array;    (* by link id *)
    model : Links.t;                (* delay and loss draws, by link id *)
    last_delivery : float array;    (* by link id, for FIFO mode *)
    link_up : bool array;           (* by link id: topology membership now *)
    down_depth : int array;         (* by link id: outage episodes covering
                                       the current instant *)
    mutable foot_on : bool;         (* scheduler attached: declare footprints *)
    mutable foot_handler : int array;
                                    (* by node id: node bit + out-link bits —
                                       everything a handler execution on the
                                       node can touch; built with the first
                                       scheduler *)
    busy : float array;             (* by node id: occupied-until instant *)
    tick_time : float array;        (* by node id: pending tick's instant *)
    tick_order : int array;         (* [reset]'s scratch: node ids by first
                                       tick instant *)
    tick_heads : int array;         (* [reset]'s scratch: by bucket, the
                                       first id on its list *)
    tick_next : int array;          (* [reset]'s scratch: by node id, the
                                       next id on its bucket's list *)
    mutable tick_fire : (unit -> unit) array;
                                    (* by node id: the tick chain of
                                       incarnation 0; built with the first
                                       ticking run *)
    occ : float array;              (* length 1: [occupy]'s start result *)
    obs_at : float array;           (* length 2: the observer's [at] *)
    mutable tick_events : event array;
                                    (* by node id: its [Tick]; built with
                                       the first observed run *)
    net_stats : stats;
    mutable trace : Trace.t;
    mutable causal : Causal.t option;
    mutable observer : observer option;
    mutable instruments : instruments option;
    mutable ticks_folded : int;     (* [net_stats.ticks] already added to
                                       ["net/ticks"] *)
    mutable inflight : int;
    mutable msg_seq : int;          (* per-network send sequence number *)
    (* The job pool.  Every array but [job_msg] has the pool's capacity;
       [job_free] heads a freelist threaded through [job_next].  A tick
       job is distinct from the per-node [tick_time] scratch because
       completions overlap: when processing time exceeds the tick period,
       several tick completions are pending on one node at once. *)
    mutable job_node : int array;   (* the node whose handler runs *)
    mutable job_begin : float array;
                                    (* a message's arrival, a tick's
                                       instant *)
    mutable job_start : float array;
    mutable job_completion : float array;
    mutable job_inc : int array;    (* node incarnation at occupancy *)
    mutable job_next : int array;
    mutable job_free : int;
    mutable job_arrive : (unit -> unit) array;
    mutable job_deliver : (unit -> unit) array;
    mutable job_tick : (unit -> unit) array;
    (* Message jobs only. *)
    mutable job_msg : P.message array;
                                    (* grown when a message is stored: a
                                       tick job has no payload to fill a
                                       new column with *)
    mutable job_filler : P.message option;
                                    (* overwrites the payloads left in
                                       freed slots when [run] returns, so
                                       that the pool retains no delivered
                                       payload past its run *)
    mutable job_link : int array;
    mutable job_seq : int array;
    mutable job_sent_at : float array;
    mutable job_cause : int array;  (* transit span id; -1 = none *)
  }

  let now t = Engine.now t.engine

  (* The observer call: the instant goes through [obs_at], so that no
     float is boxed for it. *)
  let[@inline] observe t f ev =
    t.obs_at.(0) <- Engine.now t.engine;
    f ~at:t.obs_at ~stats:t.net_stats ~in_flight:t.inflight ev

  let emit t ev =
    match t.observer with
    | None -> ()
    | Some f -> observe t f ev

  (* What becomes of a message: it is [Sent], then leaves flight exactly
     once — [Delivered], [Lost], dropped by a dead link (at the send or at
     the arrival) or by a crashed destination (at the arrival or
     mid-processing). *)
  type fate = Sent | Delivered | Lost | Link_dropped | Crash_dropped

  (* The one accounting path of a fate: the stats and the in-flight count
     first, so that the metrics, the observer and the trace all see them
     updated.  [node] is the sender of a [Sent] message and the
     destination of a [Delivered] or [Crash_dropped] one.  Inlined, so
     each call site keeps only the branches of its own fate. *)
  let[@inline] account t fate link_id ~seq ~node message =
    let s = t.net_stats in
    (match fate with
     | Sent ->
       s.sent <- s.sent + 1;
       s.sent_per_node.(node) <- s.sent_per_node.(node) + 1
     | Delivered ->
       s.delivered <- s.delivered + 1;
       s.delivered_per_node.(node) <- s.delivered_per_node.(node) + 1
     | Lost -> s.lost <- s.lost + 1
     | Link_dropped -> s.link_drops <- s.link_drops + 1
     | Crash_dropped -> s.crashed_drops <- s.crashed_drops + 1);
    t.inflight <- (match fate with Sent -> t.inflight + 1 | _ -> t.inflight - 1);
    (match t.instruments with
     | None -> ()
     | Some ins ->
       Metrics.incr
         (match fate with
          | Sent -> ins.m_sent
          | Delivered -> ins.m_delivered
          | Lost -> ins.m_lost
          | Link_dropped -> ins.m_link_drops
          | Crash_dropped -> ins.m_crashed_drops);
       Metrics.observe_int ins.m_in_flight t.inflight);
    (match t.observer with
     | None -> ()
     | Some f ->
       let link = t.links.(link_id) in
       observe t f
         (match fate with
          | Sent -> Send { link; seq }
          | Delivered -> Deliver { link; seq; dst = node }
          | Lost -> Loss { link; seq }
          | Link_dropped -> Link_drop { link; seq }
          | Crash_dropped -> Crash_drop { link; seq; dst = node }));
    if Trace.enabled t.trace then
      Trace.recordf t.trace ~time:(now t)
        ~kind:
          (match fate with
           | Sent -> "send"
           | Delivered -> "recv"
           | Lost -> "loss"
           | Link_dropped -> "link-drop"
           | Crash_dropped -> "crash-drop")
        ~source:
          (match fate with
           | Sent | Delivered -> Trace.Node node
           | Lost | Link_dropped | Crash_dropped -> Trace.Link link_id)
        "%a" P.pp_message message

  (* Scheduling classes for the engine's pluggable scheduler: link transit
     events share the link's class (per-link FIFO), node-local events
     (processing completions, ticks) share a per-node class (per-node
     processing order).  A scheduler may interleave across classes but
     never reorders within one. *)
  let link_class (link : Topology.link) = link.Topology.id
  let node_class t node_id = Array.length t.links + node_id

  (* DPOR footprints: every (node, link) entity hashes to one of 62 bits —
     nodes on even bits, links on odd, so the two namespaces never collide
     with each other.  Within a namespace, entities 31 apart share a bit;
     such a collision merges entities, creating {e false conflicts} (the
     explorer expands an alternative it could have skipped), never false
     commutation — reduction stays sound at any network size.  Masks are
     only computed when a scheduler is attached; the default path passes
     the engine's 0 default untouched. *)
  let foot_bits = 62
  let node_bit id = 1 lsl ((2 * id) mod foot_bits)
  let link_bit id = 1 lsl ((2 * id + 1) mod foot_bits)

  (* Handling an event occupies the node from max(arrival, busy) for a
     random processing time (mean γ, Definition 1.3); the handler body
     executes — and its sends depart — at the completion instant.  Events
     are therefore processed one at a time per node, in arrival order.
     Leaves the start instant in [t.occ.(0)] and the completion instant in
     [t.busy.(id)] ([start - arrival] is queueing behind earlier work,
     [completion - start] the processing time itself); results pass
     through flat arrays so no float is boxed on the way out. *)
  let[@inline] occupy t node ~arrival =
    let busy = t.busy.(node.id) in
    (* [Float.max] on instants, which are never NaN or -0. *)
    let start = if arrival >= busy then arrival else busy in
    let proc =
      match t.config.proc_delay with
      | None -> 0.
      | Some dist -> Dist.sample dist (Links.handler_stream t.model node.id)
    in
    t.busy.(node.id) <- start +. proc;
    t.occ.(0) <- start

  (* Most handlers return the state they were given.  Skipping that store
     spares the write barrier of [states], which a network that outlives
     its runs keeps in the major heap. *)
  let[@inline] set_state t id st =
    if t.states.(id) != st then t.states.(id) <- st

  let free_job t i =
    t.job_next.(i) <- t.job_free;
    t.job_free <- i

  (* The payload stays in the freed slot until the slot is reused or [run]
     returns ([release_payloads]), as an executed action stays in the
     engine's arena: a network that outlives its runs sits in the major
     heap, where every pointer store pays the write barrier. *)
  let free_message t i =
    t.job_cause.(i) <- -1;
    free_job t i

  (* Runs at the message's processing-completion instant: the delivery
     proper.  Job [i] is released before the handler runs, so sends from
     inside the handler can reuse it immediately. *)
  let deliver_job t i =
    let dst = t.nodes.(t.job_node.(i)) in
    let message = t.job_msg.(i) in
    if dst.is_crashed || dst.incarnation <> t.job_inc.(i) then begin
      (* Crashed between arrival and processing — or crashed {e and}
         rejoined: a completion scheduled under a dead incarnation must
         not deliver into the revived node's fresh state. *)
      account t Crash_dropped t.job_link.(i) ~seq:t.job_seq.(i) ~node:dst.id
        message;
      free_message t i
    end
    else begin
      account t Delivered t.job_link.(i) ~seq:t.job_seq.(i) ~node:dst.id
        message;
      (match t.causal with
       | None -> ()
       | Some c ->
         Causal.set_current_id c
           (Causal.process_at c ~cause:t.job_cause.(i) ~node:dst.id
              ~label:"recv" ~t_begin:t.job_begin ~t_busy:t.job_start
              ~t_end:t.job_completion i));
      let ctx = t.contexts.(dst.id) in
      free_message t i;
      set_state t dst.id (t.handlers.on_message ctx t.states.(dst.id) message)
    end

  (* Runs at the message's arrival instant: queue behind the destination's
     earlier work and schedule the processing completion, or run it here
     when it falls at this instant and the engine lets this event claim
     it. *)
  let arrive_job t i =
    let dst = t.nodes.(t.job_node.(i)) in
    let link_id = t.job_link.(i) in
    if dst.is_crashed || not t.link_up.(link_id) then begin
      (* The link died with this message in flight, or the destination is
         down: drop at the arrival instant, releasing the job like every
         other exit path.  A dead link takes precedence. *)
      account t
        (if t.link_up.(link_id) then Crash_dropped else Link_dropped)
        link_id ~seq:t.job_seq.(i) ~node:dst.id t.job_msg.(i);
      free_message t i
    end
    else begin
      (match t.instruments with
       | None -> ()
       | Some ins ->
         (* Link transit time of a message reaching a live node; processing
            queueing at the destination is not included. *)
         let latency = now t -. t.job_sent_at.(i) in
         Metrics.observe ins.m_latency latency;
         Metrics.observe (Metrics.member ins.m_link_latency link_id) latency);
      let arrival = now t in
      occupy t dst ~arrival;
      t.job_begin.(i) <- arrival;
      t.job_start.(i) <- t.occ.(0);
      t.job_completion.(i) <- t.busy.(dst.id);
      t.job_inc.(i) <- dst.incarnation;
      if t.busy.(dst.id) = arrival && Engine.claim_now t.engine then
        deliver_job t i
      else
        Engine.schedule_from t.engine ~tag:(node_class t dst.id)
          ~footprint:(if t.foot_on then t.foot_handler.(dst.id) else 0)
          ~times:t.busy dst.id t.job_deliver.(i)
    end

  (* A tick at its processing-completion instant: counted, shown to the
     observer with the node's clock reading, given its span, and handed to
     the handler.  Its begin, busy and end instants are [t_begin.(i)],
     [t_busy.(i)] and [t_end.(i)]: a job's columns, or [t.occ] at index 0
     for a tick claimed at its fire instant, where all three are that
     instant.  The caller has checked the node's incarnation. *)
  let tick_body t id ~t_begin ~t_busy ~t_end i =
    t.net_stats.ticks <- t.net_stats.ticks + 1;
    (match t.observer with
     | None -> ()
     | Some f ->
       let at = t.obs_at in
       (* The engine's clock is the completion instant itself unless a
          scheduler ran the completion late; read from the flat column,
          the instant is not boxed. *)
       at.(0) <- (if t.foot_on then Engine.now t.engine else t_end.(i));
       at.(1) <- Clock.local_time (Links.clock t.model id) ~real:t_end.(i);
       f ~at ~stats:t.net_stats ~in_flight:t.inflight t.tick_events.(id));
    (match t.causal with
     | None -> ()
     | Some c ->
       Causal.set_current_id c
         (Causal.process_at c ~cause:(-1) ~node:id ~label:"tick" ~t_begin
            ~t_busy ~t_end i));
    set_state t id (t.handlers.on_tick t.contexts.(id) t.states.(id))

  (* Runs at a waiting tick's completion instant.  Job [i] is released
     first, so sends from inside the handler can reuse it; freeing a slot
     touches only the freelist, so its columns still read the same until
     the next [alloc_job]. *)
  let tick_job t i =
    let id = t.job_node.(i) in
    let node = t.nodes.(id) in
    free_job t i;
    if (not node.is_crashed) && node.incarnation = t.job_inc.(i) then
      tick_body t id ~t_begin:t.job_begin ~t_busy:t.job_start
        ~t_end:t.job_completion i

  let grow_pool t =
    let old = Array.length t.job_next in
    let cap = max 16 (2 * old) in
    let grow src fill =
      let a = Array.make cap fill in
      Array.blit src 0 a 0 old;
      a
    in
    t.job_node <- grow t.job_node 0;
    t.job_begin <- grow t.job_begin 0.;
    t.job_start <- grow t.job_start 0.;
    t.job_completion <- grow t.job_completion 0.;
    t.job_inc <- grow t.job_inc 0;
    t.job_next <- grow t.job_next 0;
    t.job_arrive <- grow t.job_arrive ignore;
    t.job_deliver <- grow t.job_deliver ignore;
    t.job_tick <- grow t.job_tick ignore;
    t.job_link <- grow t.job_link 0;
    t.job_seq <- grow t.job_seq 0;
    t.job_sent_at <- grow t.job_sent_at 0.;
    t.job_cause <- grow t.job_cause (-1);
    for i = cap - 1 downto old do
      t.job_arrive.(i) <- (fun () -> arrive_job t i);
      t.job_deliver.(i) <- (fun () -> deliver_job t i);
      t.job_tick.(i) <- (fun () -> tick_job t i);
      free_job t i
    done

  let alloc_job t =
    if t.job_free < 0 then grow_pool t;
    let i = t.job_free in
    t.job_free <- t.job_next.(i);
    i

  (* The payload column catches up with the pool's capacity when a message
     is stored, the first message becoming the filler. *)
  let store_message t i message =
    if i >= Array.length t.job_msg then begin
      if t.job_filler = None then t.job_filler <- Some message;
      let msg = Array.make (Array.length t.job_next) message in
      Array.blit t.job_msg 0 msg 0 (Array.length t.job_msg);
      t.job_msg <- msg
    end;
    t.job_msg.(i) <- message

  let send_from t src link_index message =
    let out = Topology.out_links t.config.topology src.id in
    if link_index < 0 || link_index >= Array.length out then
      invalid_arg
        (Printf.sprintf "Network.send: node %d has no out-link %d" src.id
           link_index);
    let link = out.(link_index) in
    let link_id = link.Topology.id in
    let seq = t.msg_seq in
    t.msg_seq <- seq + 1;
    (* The delay is drawn unconditionally, before any loss draw (see
       {!Links}), so the delays of delivered messages are byte-identical
       whether or not loss is enabled.  It is drawn into the job's arrival
       column, so that no float is boxed on its way there; a message that
       never flies hands its job straight back, which leaves the freelist
       as it was.  The clock is read once for the whole send, from the
       engine's flat cell. *)
    let sent_at = now t in
    let i = alloc_job t in
    Links.delay_into t.model link_id ~now:sent_at t.job_begin i;
    (* Every message first enters flight (Send), and a dropped or lost one
       leaves it again immediately — so the conservation equation holds at
       both observer calls. *)
    account t Sent link_id ~seq ~node:src.id message;
    (* A down link draws no loss coin: on a static topology the loss
       stream is untouched by this branch ever existing. *)
    if (not t.link_up.(link_id)) || Links.lost t.model link_id ~now:sent_at
    then begin
      free_job t i;
      let fate = if t.link_up.(link_id) then Lost else Link_dropped in
      account t fate link_id ~seq ~node:src.id message;
      (* A dropped or lost message still happened causally: record a
         zero-length transit span (never marked delivered, so no flow
         arrow). *)
      match t.causal with
      | None -> ()
      | Some c ->
        ignore
          (Causal.transit c ~link:link_id ~src:src.id ~dst:link.Topology.dst
             ~t_begin:sent_at ~t_end:sent_at
             ~label:(match fate with Lost -> "loss" | _ -> "link-drop"))
    end
    else begin
      let arrival = sent_at +. t.job_begin.(i) in
      let arrival =
        if t.config.fifo then begin
          let adjusted = Float.max arrival t.last_delivery.(link_id) in
          t.last_delivery.(link_id) <- adjusted;
          adjusted
        end
        else arrival
      in
      store_message t i message;
      t.job_link.(i) <- link_id;
      t.job_seq.(i) <- seq;
      t.job_node.(i) <- link.Topology.dst;
      t.job_sent_at.(i) <- sent_at;
      (* The arrival event resets this to the instant it runs at. *)
      t.job_begin.(i) <- arrival;
      (* The transit span is the message's causal identity: created inside
         the sending handler (so its parent is the sender's process span)
         and stored in the job, whose delivery span names it as cause. *)
      t.job_cause.(i) <-
        (match t.causal with
         | None -> -1
         | Some c ->
           Causal.transit_at c ~link:link_id ~src:src.id
             ~dst:link.Topology.dst ~t_begin:t.job_sent_at
             ~t_end:t.job_begin ~label:"msg" i);
      Engine.schedule_arrival t.engine ~tag:(link_class link)
        ~footprint:
          (if t.foot_on then
             link_bit link_id lor node_bit link.Topology.dst
           else 0)
        ~times:t.job_begin i t.job_arrive.(i)
    end

  (* Context builder: [now] and [stop] close over the network alone, so a
     single shared pair serves every node — only the closures that really
     capture per-node state ([local_time], [send]) are allocated n
     times. *)
  let context_builder t =
    let n = Array.length t.nodes in
    let now () = Engine.now t.engine in
    let stop () = Engine.stop t.engine in
    fun node ->
      { node = node.id;
        n;
        out_degree = Topology.out_degree t.config.topology node.id;
        rng = Links.handler_stream t.model node.id;
        now;
        local_time =
          (let clock = Links.clock t.model node.id in
           fun () -> Clock.local_time clock ~real:(Engine.now t.engine));
        send = (fun link_index message -> send_from t node link_index message);
        stop }

  (* A tick completion that waits: a job of the pool, for the tick of
     [tick_time] just occupying node [id], scheduled at the node's busy
     horizon. *)
  let[@inline] schedule_tick_job t ~tag id ~inc tick_time =
    let i = alloc_job t in
    t.job_node.(i) <- id;
    t.job_begin.(i) <- tick_time;
    t.job_start.(i) <- t.occ.(0);
    t.job_completion.(i) <- t.busy.(id);
    t.job_inc.(i) <- inc;
    Engine.schedule_from t.engine ~tag
      ~footprint:(if t.foot_on then t.foot_handler.(id) else 0)
      ~times:t.busy id t.job_tick.(i)

  (* Tick generation: one self-rescheduling event chain per node, firing at
     the node's integer local-clock times.  Ticks queue behind other work on
     the node (they are local events with processing time γ).  The chain
     reuses a single [fire] closure per node — the pending tick's instant
     lives in [t.tick_time.(id)], which is safe scratch because at most one
     chain event per node is pending at a time.  A completion at the fire
     instant is claimed only after the next tick is scheduled, since the
     pop it replaces would follow the fire; a claimed completion runs there
     and then, reading its instants from [t.occ], and takes no job.  A
     completion that waits — a later one, or one the engine refuses — is
     a job of the pool, since it can overlap with later ticks.  A later
     completion is scheduled before the next tick, as always; a refused
     one behind it, which changes no order, as the two instants differ and
     nothing comes between them.

     A tick is scheduled through [Engine.schedule_from], so it joins the
     engine's time-ordered run whenever its instant is not before the
     run's tail.  [reset] schedules the first round in instant order, and
     with equal clock rates every later round fires and reschedules in
     that same order, so no tick of a perfect-clock run reaches the heap.
     Message arrivals go through [Engine.schedule_arrival] and never join
     the run: one that did would move its tail past the round being
     rescheduled.  Clocks of different rates reorder their ticks from
     round to round, and such ticks do reach the heap.

     The chain is bound to the incarnation it was started under: a fire
     still pending from before a crash must die even if the node has
     since rejoined (the rejoin starts a {e new} chain, and two live
     chains would corrupt the shared [tick_time] scratch). *)
  let tick_chain t id ~chain_inc =
    let tag = node_class t id in
    let clock = Links.clock t.model id in
    let rec fire () =
      let node = t.nodes.(id) in
      if (not node.is_crashed) && node.incarnation = chain_inc then begin
        let tick_time = t.tick_time.(id) in
        occupy t node ~arrival:tick_time;
        let same_instant = t.busy.(id) = tick_time in
        if not same_instant then
          schedule_tick_job t ~tag id ~inc:chain_inc tick_time;
        Clock.advance_tick clock t.tick_time id;
        Engine.schedule_from t.engine ~tag
          ~footprint:(if t.foot_on then node_bit id else 0)
          ~times:t.tick_time id fire;
        if same_instant then
          if Engine.claim_now t.engine then
            tick_body t id ~t_begin:t.occ ~t_busy:t.occ ~t_end:t.occ 0
          else schedule_tick_job t ~tag id ~inc:chain_inc tick_time
      end
    in
    fire

  (* A chain's first tick: the node's first integer local instant after
     [after], computed into [tick_time] and scheduled apart, so that
     [reset] can schedule a whole round in instant order. *)
  let first_tick t id ~after =
    t.tick_time.(id) <- after;
    Clock.advance_tick (Links.clock t.model id) t.tick_time id

  let schedule_tick t id fire =
    Engine.schedule_from t.engine ~tag:(node_class t id)
      ~footprint:(if t.foot_on then node_bit id else 0)
      ~times:t.tick_time id fire

  let set_link_up t link_id up =
    if link_id < 0 || link_id >= Array.length t.links then
      invalid_arg "Network.set_link_up: link id out of range";
    if t.link_up.(link_id) <> up then begin
      t.link_up.(link_id) <- up;
      emit t
        (if up then Link_up { link = t.links.(link_id) }
         else Link_down { link = t.links.(link_id) })
    end

  let revive t node_id =
    if node_id < 0 || node_id >= Array.length t.nodes then
      invalid_arg "Network.revive: node id out of range";
    let node = t.nodes.(node_id) in
    if node.is_crashed then begin
      (* Crash-recovery with state reset: the node rejoins as a fresh
         process.  Its pre-crash occupancy is void (the incarnation bump at
         crash time already killed every completion scheduled under it), so
         the busy horizon restarts at the revival instant, [init] rebuilds
         the protocol state from scratch — including any sends init
         performs — and a new tick chain starts.  The Revive event is
         emitted before init runs so an observer never sees a send from a
         node it still believes to be down. *)
      node.is_crashed <- false;
      let tnow = now t in
      t.busy.(node_id) <- tnow;
      emit t (Revive { node = node_id });
      t.states.(node_id) <- t.handlers.init t.contexts.(node_id);
      if t.config.ticks_enabled then begin
        first_tick t node_id ~after:tnow;
        schedule_tick t node_id
          (tick_chain t node_id ~chain_inc:node.incarnation)
      end
    end

  (* Tracing off: a disabled trace records nothing, so one slot is
     enough. *)
  let no_trace () = Trace.create ~capacity:1 ~enabled:false ()

  (* The network of [config]'s topology with every buffer, pool and
     closure that outlives a run; [reset] starts the run. *)
  let allocate ~engine ~model config handlers =
    let topo = config.topology in
    let n = Topology.node_count topo in
    let link_count = Topology.link_count topo in
    let t =
      { engine;
        config;
        handlers;
        nodes = Array.init n (fun id -> { id; is_crashed = false; incarnation = 0 });
        states = [||];
        contexts = [||];
        links = Topology.links topo;
        model;
        last_delivery = Array.make link_count 0.;
        link_up = Array.make link_count true;
        down_depth = Array.make link_count 0;
        foot_on = false;
        foot_handler = [||];
        busy = Array.make n 0.;
        tick_time = Array.make n 0.;
        tick_order = Array.make n 0;
        tick_heads = Array.make n 0;
        tick_next = Array.make n 0;
        tick_fire = [||];
        occ = [| 0. |];
        obs_at = [| 0.; 0. |];
        tick_events = [||];
        net_stats =
          { sent = 0;
            delivered = 0;
            lost = 0;
            crashed_drops = 0;
            link_drops = 0;
            ticks = 0;
            sent_per_node = Array.make n 0;
            delivered_per_node = Array.make n 0 };
        trace = no_trace ();
        causal = None;
        observer = None;
        instruments = None;
        ticks_folded = 0;
        inflight = 0;
        msg_seq = 0;
        job_node = [||];
        job_begin = [||];
        job_start = [||];
        job_completion = [||];
        job_inc = [||];
        job_next = [||];
        job_free = -1;
        job_arrive = [||];
        job_deliver = [||];
        job_tick = [||];
        job_msg = [||];
        job_filler = None;
        job_link = [||];
        job_seq = [||];
        job_sent_at = [||];
        job_cause = [||] }
    in
    t.contexts <- Array.map (context_builder t) t.nodes;
    t

  (* Every pool slot back on its freelist, lowest index first (as a fresh
     pool hands them out), and no payload or span kept alive. *)
  let release_pool t =
    (match t.job_filler with
     | Some m -> Array.fill t.job_msg 0 (Array.length t.job_msg) m
     | None -> ());
    let cap = Array.length t.job_next in
    Array.fill t.job_cause 0 cap (-1);
    t.job_free <- -1;
    for i = cap - 1 downto 0 do
      free_job t i
    done

  (* Time 0 of a run: the engine is already reset, so no event of an
     earlier run survives; everything the network itself kept goes back to
     its fresh value, the hooks of this run are installed, and the run's
     initial events are scheduled exactly as a fresh network schedules
     them. *)
  let reset t ?trace ?causal ?observer ~instruments ~scheduled config handlers =
    let n = Array.length t.nodes in
    let link_count = Array.length t.links in
    t.config <- config;
    t.handlers <- handlers;
    t.trace <- (match trace with Some tr -> tr | None -> no_trace ());
    t.causal <- causal;
    t.observer <- observer;
    if Option.is_some observer && Array.length t.tick_events <> n then
      t.tick_events <- Array.init n (fun node -> Tick { node });
    t.instruments <- instruments;
    t.ticks_folded <- 0;
    t.foot_on <- scheduled;
    (* Footprint masks feed the pluggable scheduler only; every read is
       behind [foot_on], so the default path skips the O(links) out-link
       walk entirely. *)
    if scheduled && Array.length t.foot_handler <> n then
      t.foot_handler <-
        Array.init n (fun id ->
            Array.fold_left
              (fun acc (link : Topology.link) -> acc lor link_bit link.Topology.id)
              (node_bit id)
              (Topology.out_links config.topology id));
    Array.fill t.last_delivery 0 link_count 0.;
    Array.fill t.link_up 0 link_count true;
    Array.fill t.down_depth 0 link_count 0;
    (* The per-node counts are zero before any [init] runs: an observer of
       a send from [init] reads them. *)
    let s = t.net_stats in
    s.sent <- 0;
    s.delivered <- 0;
    s.lost <- 0;
    s.crashed_drops <- 0;
    s.link_drops <- 0;
    s.ticks <- 0;
    Array.fill s.sent_per_node 0 n 0;
    Array.fill s.delivered_per_node 0 n 0;
    t.inflight <- 0;
    t.msg_seq <- 0;
    release_pool t;
    let ticking = config.ticks_enabled in
    if ticking && Array.length t.tick_fire <> n then begin
      (* [ignore] is static: [Array.make] from a young closure would first
         empty the minor heap. *)
      t.tick_fire <- Array.make n ignore;
      for id = 0 to n - 1 do
        t.tick_fire.(id) <- tick_chain t id ~chain_inc:0
      done
    end;
    (* A fresh network's states come from [init] itself. *)
    let warm = Array.length t.states = n in
    if not warm then t.states <- Array.map handlers.init t.contexts;
    (* One pass over the nodes, in node order since [init] may send: each
       node back up, idle and in its first incarnation, its state back to
       [init]'s (stored only when it changed, as [set_state] does) and its
       first tick instant computed. *)
    for id = 0 to n - 1 do
      let node = t.nodes.(id) in
      node.is_crashed <- false;
      node.incarnation <- 0;
      t.busy.(id) <- 0.;
      if warm then set_state t id (handlers.init t.contexts.(id));
      if ticking then first_tick t id ~after:0.
    done;
    if ticking then begin
      (* The round in [(instant, id)] order: each tick is appended to the
         engine's run, and the round's block of sequence numbers executes
         exactly as the same block in id order would, ties included. *)
      order_ticks t.tick_time t.tick_order t.tick_heads t.tick_next;
      for k = 0 to n - 1 do
        let id = t.tick_order.(k) in
        schedule_tick t id t.tick_fire.(id)
      done
    end;
    let engine = t.engine in
    List.iter
      (fun (node_id, time) ->
         if node_id < 0 || node_id >= n then
           invalid_arg "Network.create: crash_times node out of range";
         if not (time >= 0. && Float.is_finite time) then
           invalid_arg "Network.create: crash time must be non-negative";
         Engine.schedule_at engine ~time (fun () ->
             let node = t.nodes.(node_id) in
             if not node.is_crashed then begin
               node.is_crashed <- true;
               node.incarnation <- node.incarnation + 1;
               emit t (Crash { node = node_id })
             end))
      config.crash_times;
    List.iter
      (fun (node_id, time) ->
         if node_id < 0 || node_id >= n then
           invalid_arg "Network.create: revive_times node out of range";
         if not (time >= 0. && Float.is_finite time) then
           invalid_arg "Network.create: revive time must be non-negative";
         Engine.schedule_at engine ~time (fun () -> revive t node_id))
      config.revive_times;
    (* Link outage episodes may overlap (composed scenarios): a per-link
       depth counter makes the link live exactly when no episode covers the
       current instant, regardless of how episodes nest. *)
    let down_depth = t.down_depth in
    List.iter
      (fun (link_id, down_at, up_at) ->
         if link_id < 0 || link_id >= link_count then
           invalid_arg "Network.create: link_downs link out of range";
         if
           not
             (down_at >= 0. && Float.is_finite down_at
              && Float.is_finite up_at && up_at > down_at)
         then
           invalid_arg
             "Network.create: link_downs episode must satisfy \
              0 <= down_at < up_at (finite)";
         Engine.schedule_at engine ~time:down_at (fun () ->
             down_depth.(link_id) <- down_depth.(link_id) + 1;
             if down_depth.(link_id) = 1 then set_link_up t link_id false);
         Engine.schedule_at engine ~time:up_at (fun () ->
             down_depth.(link_id) <- down_depth.(link_id) - 1;
             if down_depth.(link_id) = 0 then set_link_up t link_id true))
      config.link_downs

  let create ?reuse ?trace ?metrics ?scheduler ?causal ?observer
      ?(limit_time = infinity) ?(limit_events = max_int)
      ?(wall_deadline = infinity) ~seed config handlers =
    let topo = config.topology in
    (match reuse with
     | Some t when t.config.topology != topo ->
       invalid_arg "Network.create: reuse was built over another topology"
     | _ -> ());
    let model =
      match
        Links.create ?reuse:(Option.map (fun t -> t.model) reuse) ~seed
          ~clock_spec:config.clock_spec ?loss_schedule:config.loss_schedule
          ~delay_of_link:config.delay_of_link topo
      with
      | Ok model -> model
      | Error msg -> invalid_arg ("Network.create: " ^ msg)
    in
    Option.iter Dist.validate config.proc_delay;
    let engine =
      Engine.create ?reuse:(Option.map (fun t -> t.engine) reuse) ?metrics
        ?scheduler ?causal ~limit_time ~limit_events ~wall_deadline ()
    in
    let t =
      match reuse with
      | Some t -> t
      | None -> allocate ~engine ~model config handlers
    in
    let instruments =
      Option.map
        (fun m ->
           { m_sent = Metrics.counter m "net/sent";
             m_delivered = Metrics.counter m "net/delivered";
             m_lost = Metrics.counter m "net/lost";
             m_crashed_drops = Metrics.counter m "net/crashed_drops";
             m_link_drops = Metrics.counter m "net/link_drops";
             m_ticks = Metrics.counter m "net/ticks";
             m_latency = Metrics.histogram m "net/latency";
             m_link_latency =
               Metrics.histogram_family m ~prefix:"net/link/"
                 ~suffix:"/latency" (Array.length t.links);
             m_in_flight = Metrics.histogram m "net/in_flight" })
        metrics
    in
    reset t ?trace ?causal ?observer ~instruments
      ~scheduled:(scheduler <> None) config handlers;
    t

  (* ["net/ticks"] mirrors [net_stats.ticks]: added once on every exit
     from [run], returning or raising, instead of once per tick. *)
  let fold_ticks t =
    match t.instruments with
    | None -> ()
    | Some ins ->
      let ticks = t.net_stats.ticks in
      if ticks > t.ticks_folded then begin
        Metrics.incr ~by:(ticks - t.ticks_folded) ins.m_ticks;
        t.ticks_folded <- ticks
      end

  (* The payloads left in free slots, overwritten by the filler: a slot
     already holding it takes no store. *)
  let release_payloads t =
    match t.job_filler with
    | None -> ()
    | Some filler ->
      let i = ref t.job_free in
      while !i >= 0 do
        if !i < Array.length t.job_msg && t.job_msg.(!i) != filler then
          t.job_msg.(!i) <- filler;
        i := t.job_next.(!i)
      done

  let run t =
    match Engine.run t.engine with
    | outcome ->
      fold_ticks t;
      release_payloads t;
      outcome
    | exception e ->
      let backtrace = Printexc.get_raw_backtrace () in
      fold_ticks t;
      release_payloads t;
      Printexc.raise_with_backtrace e backtrace

  let counters t = Engine.counters t.engine
  let state t i = t.states.(i)
  let states t = Array.copy t.states
  let stats t = t.net_stats
  let engine t = t.engine
  let in_flight t = t.inflight
  let crashed t i = t.nodes.(i).is_crashed
  let incarnation t i = t.nodes.(i).incarnation
  let link_is_up t link_id = t.link_up.(link_id)

  (* Pool-occupancy introspection, for leak regression tests: slots not on
     the freelist.  O(pool) freelist walk — diagnostics, not a hot path. *)
  let envelopes_in_use t =
    let in_use = ref (Array.length t.job_next) in
    let i = ref t.job_free in
    while !i >= 0 do
      decr in_use;
      i := t.job_next.(!i)
    done;
    !in_use
end
