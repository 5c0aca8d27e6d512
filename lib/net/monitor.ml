(* Which invariants apply depends on how dynamic the network is allowed to
   be: a static run must never see a topology event at all, while a churn
   run only keeps the accounting invariants (the topology is expected to
   disconnect and reconnect freely). *)
type dynamic_class =
  | Static
  | Dynamic

type t = {
  mutable oracle : Abe_sim.Oracle.t;
  fifo : bool;
  mutable clock : Clock.spec option;
  dynamic : dynamic_class;
  mutable sent : int;
  mutable delivered : int;
  mutable lost : int;
  mutable dropped : int;
  mutable link_dropped : int;
  mutable ticks : int;
  last_delivered_seq : int array;        (* by link id; -1 = none yet *)
  last_tick_real : float array;          (* by node id: the last processed
                                            tick's real instant; nan = none *)
  last_tick_local : float array;         (* by node id: its local reading *)
}

let create ~oracle ?clock ?(fifo = false) ?(dynamic = Static) ~nodes ~links () =
  { oracle;
    fifo;
    clock;
    dynamic;
    sent = 0;
    delivered = 0;
    lost = 0;
    dropped = 0;
    link_dropped = 0;
    ticks = 0;
    last_delivered_seq = Array.make (max links 1) (-1);
    last_tick_real = Array.make (max nodes 1) nan;
    last_tick_local = Array.make (max nodes 1) nan }

let reset t ~oracle ?clock () =
  t.oracle <- oracle;
  t.clock <- clock;
  t.sent <- 0;
  t.delivered <- 0;
  t.lost <- 0;
  t.dropped <- 0;
  t.link_dropped <- 0;
  t.ticks <- 0;
  Array.fill t.last_delivered_seq 0 (Array.length t.last_delivered_seq) (-1);
  Array.fill t.last_tick_real 0 (Array.length t.last_tick_real) nan;
  Array.fill t.last_tick_local 0 (Array.length t.last_tick_local) nan

(* Headroom of the tick-rate check: 4 ulps of the larger reading.  A
   linear clock's rate between two completions is exact, so only the
   rounding of the two readings needs headroom, and each is off by about
   an ulp of the larger instant, whatever the gap between them.  A fixed
   relative tolerance cannot hold that: past t = 2^23 an ulp is 1.9e-9 of
   a gap of 1. *)
let rounding = 4. *. epsilon_float

let link_subject (link : Topology.link) =
  Printf.sprintf "link %d (%d->%d)" link.Topology.id link.Topology.src
    link.Topology.dst

(* Built only when a violation is reported: the tick check runs on every
   tick. *)
let node_subject node = Printf.sprintf "node %d" node

(* The checks read the instant from the observer's [at] array, and only
   a report boxes it: a checked run's observer calls allocate nothing. *)

let check_conservation t ~at ~(stats : Network.stats) ~in_flight =
  if
    stats.sent
    <> stats.delivered + stats.lost + stats.crashed_drops + stats.link_drops
       + in_flight
  then
    Abe_sim.Oracle.reportf t.oracle ~time:at.(0) ~invariant:"conservation"
      ~subject:"network"
      "sent=%d <> delivered=%d + lost=%d + crashed_drops=%d + link_drops=%d \
       + in_flight=%d"
      stats.sent stats.delivered stats.lost stats.crashed_drops
      stats.link_drops in_flight;
  (* Cross-check the network's accounting against the monitor's independent
     event counts: a missed or double-counted event shows up here even when
     the network's own equation still balances. *)
  if
    stats.sent <> t.sent || stats.delivered <> t.delivered
    || stats.lost <> t.lost || stats.crashed_drops <> t.dropped
    || stats.link_drops <> t.link_dropped
  then
    Abe_sim.Oracle.reportf t.oracle ~time:at.(0) ~invariant:"accounting"
      ~subject:"network"
      "stats (%d,%d,%d,%d,%d) disagree with observed events (%d,%d,%d,%d,%d)"
      stats.sent stats.delivered stats.lost stats.crashed_drops
      stats.link_drops t.sent t.delivered t.lost t.dropped t.link_dropped;
  let expected_inflight =
    t.sent - t.delivered - t.lost - t.dropped - t.link_dropped
  in
  if in_flight <> expected_inflight then
    Abe_sim.Oracle.reportf t.oracle ~time:at.(0) ~invariant:"accounting"
      ~subject:"network" "in_flight=%d but observed events imply %d" in_flight
      expected_inflight

let static_violation t ~at what =
  if t.dynamic = Static then
    Abe_sim.Oracle.reportf t.oracle ~time:at.(0) ~invariant:"dynamic-class"
      ~subject:"network" "%s event in a Static-class network" what

let check_event t ~at (ev : Network.event) =
  match ev with
  | Send _ -> t.sent <- t.sent + 1
  | Loss _ -> t.lost <- t.lost + 1
  | Crash_drop _ -> t.dropped <- t.dropped + 1
  | Link_drop _ ->
    t.link_dropped <- t.link_dropped + 1;
    static_violation t ~at "Link_drop"
  | Crash _ -> ()
  | Revive _ -> static_violation t ~at "Revive"
  | Link_down _ -> static_violation t ~at "Link_down"
  | Link_up _ -> static_violation t ~at "Link_up"
  | Deliver { link; seq; dst = _ } ->
    t.delivered <- t.delivered + 1;
    let id = link.Topology.id in
    if t.fifo && id >= 0 && id < Array.length t.last_delivered_seq then begin
      if seq <= t.last_delivered_seq.(id) then
        Abe_sim.Oracle.reportf t.oracle ~time:at.(0) ~invariant:"fifo"
          ~subject:(link_subject link)
          "delivered seq %d after seq %d" seq t.last_delivered_seq.(id);
      t.last_delivered_seq.(id) <- seq
    end
  | Tick { node } ->
    t.ticks <- t.ticks + 1;
    if node >= 0 && node < Array.length t.last_tick_real then begin
      let time = at.(0) and local_time = at.(1) in
      let prev_real = t.last_tick_real.(node)
      and prev_local = t.last_tick_local.(node) in
      if not (Float.is_nan prev_real) then begin
        if local_time <= prev_local then
          Abe_sim.Oracle.reportf t.oracle ~time ~invariant:"clock-monotone"
            ~subject:(node_subject node) "local clock went from %.6f to %.6f"
            prev_local local_time;
        match t.clock with
        | None -> ()
        | Some spec ->
          (* Ticks are processed at completion instants, but the clock is
             linear, so the observed rate between two completions equals
             the true rate and must respect Definition 1.2.  This holds
             across a crash-and-rejoin gap too: the clock is a pure
             function of real time and keeps running while the node is
             down. *)
          if time > prev_real then begin
            let gap = time -. prev_real
            and advance = local_time -. prev_local in
            (* The rate bounds, multiplied out by the gap: no division
               unless the rate is reported. *)
            let slack =
              let a = Float.abs time and b = Float.abs local_time in
              rounding *. if a > b then a else b
            in
            if
              advance < spec.Clock.s_low *. (gap -. slack)
              || advance > spec.Clock.s_high *. (gap +. slack)
            then
              Abe_sim.Oracle.reportf t.oracle ~time ~invariant:"clock-drift"
                ~subject:(node_subject node)
                "observed rate %.9f outside [%g, %g]" (advance /. gap)
                spec.Clock.s_low spec.Clock.s_high
          end
      end;
      t.last_tick_real.(node) <- time;
      t.last_tick_local.(node) <- local_time
    end

let observer t : Network.observer =
 fun ~at ~stats ~in_flight ev ->
  check_event t ~at ev;
  check_conservation t ~at ~stats ~in_flight

let check_quiescence t ~time ~(outcome : Abe_sim.Engine.outcome) ~in_flight =
  match outcome with
  | Drained ->
    if in_flight <> 0 then
      Abe_sim.Oracle.reportf t.oracle ~time ~invariant:"quiescence"
        ~subject:"network"
        "event queue drained with %d message(s) still in flight" in_flight
  | Stopped | Hit_time_limit | Hit_event_limit | Hit_wall_deadline ->
    (* The run was cut short; messages may legitimately be in flight. *)
    ()

