open Abe_sim

let test_runs_in_time_order () =
  let engine = Engine.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  ignore (Engine.schedule engine ~delay:3. (record "c"));
  ignore (Engine.schedule engine ~delay:1. (record "a"));
  ignore (Engine.schedule engine ~delay:2. (record "b"));
  Alcotest.(check bool) "drained" true (Engine.run engine = Engine.Drained);
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let test_equal_times_fifo () =
  let engine = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.schedule engine ~delay:1. (fun () -> log := i :: !log))
  done;
  ignore (Engine.run engine);
  Alcotest.(check (list int)) "scheduling order" (List.init 10 Fun.id)
    (List.rev !log)

let test_clock_advances () =
  let engine = Engine.create () in
  let seen = ref [] in
  ignore
    (Engine.schedule engine ~delay:2. (fun () ->
         seen := Engine.now engine :: !seen;
         ignore
           (Engine.schedule engine ~delay:3. (fun () ->
                seen := Engine.now engine :: !seen))));
  ignore (Engine.run engine);
  Alcotest.(check (list (float 1e-9))) "times" [ 2.; 5. ] (List.rev !seen)

let test_stop_and_resume () =
  let engine = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Engine.schedule engine ~delay:1. (fun () ->
           incr count;
           if !count = 2 then Engine.stop engine))
  done;
  Alcotest.(check bool) "stopped" true (Engine.run engine = Engine.Stopped);
  Alcotest.(check int) "two executed" 2 !count;
  Alcotest.(check bool) "resume drains" true (Engine.run engine = Engine.Drained);
  Alcotest.(check int) "all executed" 5 !count

let test_event_limit () =
  let engine = Engine.create ~limit_events:3 () in
  let count = ref 0 in
  let rec reschedule () =
    incr count;
    ignore (Engine.schedule engine ~delay:1. reschedule)
  in
  ignore (Engine.schedule engine ~delay:1. reschedule);
  Alcotest.(check bool) "hit limit" true
    (Engine.run engine = Engine.Hit_event_limit);
  Alcotest.(check int) "exactly 3" 3 !count

let test_time_limit () =
  let engine = Engine.create ~limit_time:10. () in
  let reached = ref [] in
  List.iter
    (fun delay ->
       ignore
         (Engine.schedule engine ~delay (fun () ->
              reached := delay :: !reached)))
    [ 5.; 15.; 8. ];
  Alcotest.(check bool) "hit time limit" true
    (Engine.run engine = Engine.Hit_time_limit);
  Alcotest.(check (list (float 1e-9))) "only early events" [ 5.; 8. ]
    (List.rev !reached);
  (* The over-limit event is preserved, not lost. *)
  Alcotest.(check int) "still pending" 1 (Engine.pending_events engine)

let test_time_limit_resume_keeps_fifo () =
  (* Regression: hitting the time budget pops the earliest over-limit event
     and puts it back.  It must go back under its original sequence number —
     a fresh one would demote it behind same-time peers scheduled after it,
     silently reordering deliveries on resume. *)
  let engine = Engine.create ~limit_time:10. () in
  let log = ref [] in
  ignore (Engine.schedule engine ~delay:5. (fun () -> log := "early" :: !log));
  ignore (Engine.schedule engine ~delay:15. (fun () -> log := "a" :: !log));
  ignore (Engine.schedule engine ~delay:15. (fun () -> log := "b" :: !log));
  Alcotest.(check bool) "hit limit" true
    (Engine.run engine = Engine.Hit_time_limit);
  Alcotest.(check int) "both over-limit events preserved" 2
    (Engine.pending_events engine);
  (* A second resume re-pops and re-queues the same event once more. *)
  Alcotest.(check bool) "still over limit" true
    (Engine.run engine = Engine.Hit_time_limit);
  (* Both deferred events stay queued: an event scheduled within the
     budget after them still runs, and the budget still holds them back. *)
  Engine.schedule engine ~delay:2. (fun () -> log := "mid" :: !log);
  Alcotest.(check bool) "resume hits the limit again" true
    (Engine.run engine = Engine.Hit_time_limit);
  Alcotest.(check int) "deferred events still pending" 2
    (Engine.pending_events engine);
  Alcotest.(check (list string)) "only in-budget events ran"
    [ "early"; "mid" ] (List.rev !log)

(* Builds the action in a helper so the test body holds no reference to the
   payload: after execution only the arena could keep it alive. *)
let weak_action w =
  let payload = Bytes.create 4096 in
  Weak.set w 0 (Some payload);
  fun () -> ignore (Bytes.length payload)

let test_executed_action_released () =
  (* Once [run] returns, an executed event's closure — and any message
     payload it captures — must be collectable while the engine lives on,
     not pinned until the slot happens to be recycled. *)
  let engine = Engine.create () in
  let w = Weak.create 1 in
  ignore (Engine.schedule engine ~delay:1. (weak_action w));
  ignore (Engine.run engine);
  Gc.full_major ();
  Alcotest.(check bool) "payload collected" false (Weak.check w 0);
  (* Used after the collection, so the engine itself was not garbage. *)
  Alcotest.(check int) "engine still live" 1 (Engine.executed_events engine)

let test_pending_actions_survive_stop () =
  (* Only free slots drop their actions when [run] returns: on a warm
     arena, a run stopped with events pending releases what it executed
     and keeps every pending action. *)
  let engine = Engine.create () in
  for _ = 1 to 8 do
    Engine.schedule engine ~delay:1. ignore
  done;
  ignore (Engine.run engine);
  let w = Weak.create 1 in
  let fired = ref 0 in
  Engine.schedule engine ~delay:1. (weak_action w);
  Engine.schedule engine ~delay:2. (fun () -> Engine.stop engine);
  for k = 3 to 8 do
    Engine.schedule engine ~delay:(float_of_int k) (fun () -> incr fired)
  done;
  Alcotest.(check bool) "stopped" true (Engine.run engine = Engine.Stopped);
  Gc.full_major ();
  Alcotest.(check bool) "executed payload collected" false (Weak.check w 0);
  Alcotest.(check int) "six pending" 6 (Engine.pending_events engine);
  Alcotest.(check bool) "resume drains" true (Engine.run engine = Engine.Drained);
  Alcotest.(check int) "every pending action ran" 6 !fired

let test_schedule_at () =
  let engine = Engine.create () in
  let at = ref 0. in
  ignore (Engine.schedule_at engine ~time:7.5 (fun () -> at := Engine.now engine));
  ignore (Engine.run engine);
  Alcotest.(check (float 1e-9)) "absolute time" 7.5 !at

let test_schedule_in_past_rejected () =
  let engine = Engine.create () in
  ignore
    (Engine.schedule engine ~delay:5. (fun () ->
         match Engine.schedule_at engine ~time:1. (fun () -> ()) with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected rejection of past time"));
  ignore (Engine.run engine)

let test_negative_delay_rejected () =
  let engine = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: delay must be non-negative and finite")
    (fun () -> ignore (Engine.schedule engine ~delay:(-1.) (fun () -> ())))

let test_nan_time_rejected () =
  let nan_rejected label engine =
    Alcotest.check_raises label
      (Invalid_argument "Engine.schedule_at: time must be >= now")
      (fun () -> Engine.schedule_at engine ~time:Float.nan ignore)
  in
  nan_rejected "without a scheduler" (Engine.create ());
  (* A scheduler clamps an overtaken time to now, but NaN is not one. *)
  nan_rejected "under a scheduler"
    (Engine.create
       ~scheduler:
         { Engine.window = 1.; choose = (fun ~now:_ ~state_digest:_ _ -> 0) }
       ())

let test_zero_delay_runs_now () =
  let engine = Engine.create () in
  let order = ref [] in
  ignore
    (Engine.schedule engine ~delay:1. (fun () ->
         order := "outer" :: !order;
         ignore
           (Engine.schedule engine ~delay:0. (fun () ->
                order := "inner" :: !order))));
  ignore (Engine.schedule engine ~delay:2. (fun () -> order := "later" :: !order));
  ignore (Engine.run engine);
  Alcotest.(check (list string)) "inner before later"
    [ "outer"; "inner"; "later" ] (List.rev !order)

let test_pending_count () =
  let engine = Engine.create () in
  Engine.schedule engine ~delay:1. (fun () -> Engine.stop engine);
  Engine.schedule engine ~delay:2. (fun () -> ());
  Alcotest.(check int) "two pending" 2 (Engine.pending_events engine);
  ignore (Engine.run engine);
  Alcotest.(check int) "one pending" 1 (Engine.pending_events engine);
  ignore (Engine.run engine);
  Alcotest.(check int) "none pending" 0 (Engine.pending_events engine)

let test_counters_zero_on_fresh () =
  let c = Engine.counters (Engine.create ()) in
  Alcotest.(check int) "no events" 0 c.Engine.executed;
  Alcotest.(check int) "no depth" 0 c.Engine.max_queue_depth;
  Alcotest.(check (float 0.)) "no wall time" 0. c.Engine.wall_time

let test_counters_track_run () =
  let engine = Engine.create () in
  for _ = 1 to 4 do
    ignore (Engine.schedule engine ~delay:1. (fun () -> ()))
  done;
  Alcotest.(check int) "depth before run" 4 (Engine.max_queue_depth engine);
  ignore (Engine.run engine);
  let c = Engine.counters engine in
  Alcotest.(check int) "executed" 4 c.Engine.executed;
  Alcotest.(check int) "high-water mark survives drain" 4 c.Engine.max_queue_depth;
  Alcotest.(check bool) "wall time non-negative" true (c.Engine.wall_time >= 0.);
  (* A later, shallower burst must not lower the high-water mark. *)
  ignore (Engine.schedule engine ~delay:1. (fun () -> ()));
  ignore (Engine.run engine);
  Alcotest.(check int) "mark is monotone" 4 (Engine.max_queue_depth engine)

let test_counters_monotone_across_runs () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~delay:1. (fun () -> ()));
  ignore (Engine.run engine);
  let c1 = Engine.counters engine in
  ignore (Engine.schedule engine ~delay:1. (fun () -> ()));
  ignore (Engine.run engine);
  let c2 = Engine.counters engine in
  Alcotest.(check bool) "executed grows" true (c2.Engine.executed > c1.Engine.executed);
  Alcotest.(check bool) "wall time accumulates" true
    (c2.Engine.wall_time >= c1.Engine.wall_time);
  Alcotest.(check bool) "depth never shrinks" true
    (c2.Engine.max_queue_depth >= c1.Engine.max_queue_depth)

let test_counters_stable_across_time_limit_resume () =
  let engine = Engine.create ~limit_time:10. () in
  List.iter
    (fun delay -> ignore (Engine.schedule engine ~delay (fun () -> ())))
    [ 5.; 15.; 8. ];
  Alcotest.(check bool) "hit limit" true (Engine.run engine = Engine.Hit_time_limit);
  let c1 = Engine.counters engine in
  Alcotest.(check int) "two executed" 2 c1.Engine.executed;
  Alcotest.(check int) "depth counts all three" 3 c1.Engine.max_queue_depth;
  (* Resuming re-pops and re-queues the over-limit event: executed and the
     high-water mark must not move. *)
  Alcotest.(check bool) "still over limit" true
    (Engine.run engine = Engine.Hit_time_limit);
  let c2 = Engine.counters engine in
  Alcotest.(check int) "executed stable" c1.Engine.executed c2.Engine.executed;
  Alcotest.(check int) "depth stable" c1.Engine.max_queue_depth
    c2.Engine.max_queue_depth;
  Alcotest.(check bool) "wall time still monotone" true
    (c2.Engine.wall_time >= c1.Engine.wall_time);
  Alcotest.(check int) "event preserved" 1 (Engine.pending_events engine)

let prop_many_events_ordered =
  QCheck.Test.make ~name:"random schedules execute in order" ~count:200
    QCheck.(list (float_range 0. 100.))
    (fun delays ->
       let engine = Engine.create () in
       let times = ref [] in
       List.iter
         (fun delay ->
            ignore
              (Engine.schedule engine ~delay (fun () ->
                   times := Engine.now engine :: !times)))
         delays;
       ignore (Engine.run engine);
       let executed = List.rev !times in
       executed = List.sort Float.compare delays)

let test_now_event_after_queued_peers () =
  (* The same-instant lane: an event an action schedules at [now] joins
     the events already queued for this instant behind them (higher seq),
     and still runs before anything later. *)
  let engine = Engine.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  ignore
    (Engine.schedule engine ~delay:1. (fun () ->
         record "a" ();
         ignore (Engine.schedule engine ~delay:0. (record "now"));
         ignore (Engine.schedule_at engine ~time:1. (record "now-at"))));
  ignore (Engine.schedule engine ~delay:1. (record "b"));
  ignore (Engine.schedule engine ~delay:2. (record "later"));
  ignore (Engine.schedule engine ~delay:1. (record "c"));
  ignore (Engine.run engine);
  Alcotest.(check (list string)) "queued peers, then now, then later"
    [ "a"; "b"; "c"; "now"; "now-at"; "later" ] (List.rev !log)

(* Random programs for the pending-order property.  Event k (in execution
   order) follows script entry k, if there is one: it schedules a round of
   children one time unit ahead (as a perfect clock's tick does: they join
   the time-ordered run), then children at the given delays (0 lands in the
   same-instant lane; a delay shorter than the run's tail goes to the
   heap), and may stop the run.  A child is scheduled through
   [Engine.schedule] or, as a message arrival is, through
   [Engine.schedule_arrival], which never joins the run.  The reference
   keeps a plain pending list and executes its least [(time, seq)] while
   the budgets allow. *)
type child = { delay : float; arrival : bool }

type entry = {
  round : int;
  children : child list;
  stop : bool;
}

type program = {
  roots : child list;
  script : entry array;
  limit : float;  (* the engine's [limit_time] *)
  max_events : int;  (* the engine's [limit_events] *)
}

let entry_children e =
  List.init e.round (fun _ -> { delay = 1.; arrival = false }) @ e.children

let reference_order prog =
  let pending = ref [] and scheduled = ref 0 and clock = ref 0. in
  let add { delay; _ } =
    pending := (!clock +. delay, !scheduled) :: !pending;
    incr scheduled
  in
  List.iter add prog.roots;
  let log = ref [] and executed = ref 0 in
  let earliest (t1, s1) (t2, s2) =
    if t1 < t2 || (t1 = t2 && s1 < s2) then (t1, s1) else (t2, s2)
  in
  let within_budget () =
    !pending <> []
    && !executed < prog.max_events
    && fst (List.fold_left earliest (List.hd !pending) !pending) <= prog.limit
  in
  while within_budget () do
    let ((time, id) as first) =
      List.fold_left earliest (List.hd !pending) !pending
    in
    pending := List.filter (fun e -> e <> first) !pending;
    clock := time;
    log := id :: !log;
    if !executed < Array.length prog.script then
      List.iter add (entry_children prog.script.(!executed));
    incr executed
  done;
  List.rev !log

(* [By_run] takes the fast loop, [By_metrics] and [By_causal] the
   observed loop with no scheduler, [By_scheduler] the observed loop with
   one, which always picks the earliest candidate. *)
type drive = By_run | By_metrics | By_causal | By_scheduler

let drives = [ By_run; By_metrics; By_causal; By_scheduler ]

(* A fresh engine driven as [drive], with its metrics registry and span
   recorder, if any. *)
let driven_engine drive ?limit_time ~limit_events () =
  let metrics = if drive = By_metrics then Some (Metrics.create ()) else None in
  let causal = if drive = By_causal then Some (Causal.create ()) else None in
  let scheduler =
    if drive = By_scheduler then
      Some
        { Engine.window = 1.5;
          choose = (fun ~now:_ ~state_digest:_ _ -> 0) }
    else None
  in
  ( Engine.create ?metrics ?causal ?scheduler ?limit_time ~limit_events (),
    metrics,
    causal )

let engine_order drive prog =
  let engine, _, _ =
    driven_engine drive ~limit_time:prog.limit ~limit_events:prog.max_events
      ()
  in
  let scheduled = ref 0 and at = [| 0. |] in
  let log = ref [] and executed = ref 0 in
  let rec add { delay; arrival } =
    let id = !scheduled in
    incr scheduled;
    if arrival then begin
      at.(0) <- Engine.now engine +. delay;
      Engine.schedule_arrival engine ~tag:(-1) ~footprint:0 ~times:at 0
        (fun () -> fire id)
    end
    else Engine.schedule engine ~delay (fun () -> fire id)
  and fire id =
    log := id :: !log;
    if !executed < Array.length prog.script then begin
      let e = prog.script.(!executed) in
      List.iter add (entry_children e);
      if e.stop then Engine.stop engine
    end;
    incr executed
  in
  List.iter add prog.roots;
  (* Resume after every stop.  Past a budget, one more [run] must execute
     nothing: past the time budget it pops the deferred event again and
     puts it back into the heap. *)
  let rec go () =
    match Engine.run engine with
    | Engine.Stopped -> go ()
    | Engine.Hit_time_limit | Engine.Hit_event_limit ->
      ignore (Engine.run engine)
    | Engine.Drained | Engine.Hit_wall_deadline -> ()
  in
  go ();
  List.rev !log

let program_gen =
  let open QCheck.Gen in
  let delay =
    map2
      (fun delay arrival -> { delay; arrival })
      (oneofl [ 0.; 0.; 0.; 0.25; 0.5; 1.; 1.; 1.5; 2. ])
      bool
  in
  let entry =
    map3
      (fun round children stop -> { round; children; stop })
      (frequency [ (2, return 0); (1, int_range 1 4) ])
      (list_size (int_bound 3) delay)
      (frequency [ (1, return true); (9, return false) ])
  in
  map4
    (fun roots script limit max_events ->
       { roots; script = Array.of_list script; limit; max_events })
    (list_size (int_range 1 6) delay)
    (list_size (int_bound 80) entry)
    (oneofl [ 1.; 2.5; 4.; infinity ])
    (oneofl [ 5; 30; max_int ])

let print_child c =
  Printf.sprintf "%s%g" (if c.arrival then "a" else "") c.delay

let print_program prog =
  Printf.sprintf "roots=[%s] limit=%g max_events=%d script=[%s]"
    (String.concat ";" (List.map print_child prog.roots))
    prog.limit prog.max_events
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun e ->
                Printf.sprintf "{%dx1|%s%s}" e.round
                  (String.concat "," (List.map print_child e.children))
                  (if e.stop then "|stop" else ""))
             prog.script)))

let prop_lane_exact =
  QCheck.Test.make
    ~name:
      "same-instant lane keeps (time, seq) order: run, metrics, scheduler"
    ~count:300
    (QCheck.make ~print:print_program program_gen)
    (fun prog ->
       (* Each program runs under its budgets and, so that every event of
          a long program is checked too, without them. *)
       List.for_all
         (fun prog ->
            let expected = reference_order prog in
            List.for_all
              (fun drive -> engine_order drive prog = expected)
              drives)
         [ prog; { prog with limit = infinity; max_events = max_int } ])

(* [Engine.claim_now] against plain scheduling.  Event k (in execution
   order) follows script entry k, if there is one: it schedules children
   at delays on a half-unit grid, so that instants tie across events and
   with the roots, may stop the run or raise, and may end with a
   same-instant follow-up.  A program runs twice, once offering every
   follow-up to [claim_now] (running it at once on yes) and once
   scheduling every one of them at delay 0; both must execute the same
   events in the same order at the same Lamport times, with the same
   counts, outcomes and queue-depth rows. *)
type claim_entry = {
  spawn : child list;
  follow : bool;  (* end with a same-instant follow-up *)
  halt : bool;    (* call [Engine.stop] *)
  raises : bool;  (* raise after spawning, so no follow-up *)
}

type claim_program = {
  starts : child list;
  steps : claim_entry array;
  cut : int;  (* the engine's [limit_events] *)
}

exception Boom

let claim_run ~claim drive prog =
  let engine, metrics, causal = driven_engine drive ~limit_events:prog.cut () in
  let scheduled = ref 0 and executed = ref 0 and at = [| 0. |] in
  let log = ref [] in
  let fresh () =
    let id = !scheduled in
    incr scheduled;
    id
  in
  let rec add { delay; arrival } =
    let id = fresh () in
    if arrival then begin
      at.(0) <- Engine.now engine +. delay;
      Engine.schedule_arrival engine ~tag:(-1) ~footprint:0 ~times:at 0
        (fun () -> fire id)
    end
    else Engine.schedule engine ~delay (fun () -> fire id)
  and fire id =
    let lamport =
      match causal with
      | None -> 0
      | Some c -> Causal.scheduling_lamport c
    in
    log := `Event (id, Engine.now engine, lamport) :: !log;
    let k = !executed in
    incr executed;
    if k < Array.length prog.steps then begin
      let e = prog.steps.(k) in
      List.iter add e.spawn;
      if e.halt then Engine.stop engine;
      if e.raises then raise Boom;
      if e.follow then begin
        let id = fresh () in
        if claim && Engine.claim_now engine then fire id
        else Engine.schedule engine ~delay:0. (fun () -> fire id)
      end
    end
  in
  List.iter add prog.starts;
  let rec go () =
    match Engine.run engine with
    | Engine.Stopped ->
      log := `Outcome "stopped" :: !log;
      go ()
    | Engine.Hit_event_limit ->
      log := `Outcome "event limit" :: !log;
      ignore (Engine.run engine)
    | Engine.Drained -> log := `Outcome "drained" :: !log
    | Engine.Hit_time_limit | Engine.Hit_wall_deadline ->
      log := `Outcome "unexpected" :: !log
    | exception Boom ->
      log := `Outcome "raised" :: !log;
      go ()
  in
  go ();
  ( List.rev !log,
    (Engine.executed_events engine, Engine.max_queue_depth engine),
    Engine.pending_events engine,
    Option.map Metrics.report_rows metrics )

let claim_program_gen =
  let open QCheck.Gen in
  let child =
    map2
      (fun delay arrival -> { delay; arrival })
      (oneofl [ 0.; 0.; 0.5; 1.; 1.; 1.; 2. ])
      bool
  in
  let entry =
    map4
      (fun spawn follow halt raises -> { spawn; follow; halt; raises })
      (list_size (int_bound 3) child)
      (frequency [ (3, return true); (1, return false) ])
      (frequency [ (1, return true); (12, return false) ])
      (frequency [ (1, return true); (12, return false) ])
  in
  map3
    (fun starts steps cut -> { starts; steps = Array.of_list steps; cut })
    (list_size (int_range 1 6) child)
    (list_size (int_bound 60) entry)
    (frequency [ (1, return max_int); (2, int_range 1 80) ])

let print_claim_program prog =
  Printf.sprintf "starts=[%s] cut=%d steps=[%s]"
    (String.concat ";" (List.map print_child prog.starts))
    prog.cut
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun e ->
                Printf.sprintf "{%s%s%s%s}"
                  (String.concat "," (List.map print_child e.spawn))
                  (if e.follow then "|follow" else "")
                  (if e.halt then "|stop" else "")
                  (if e.raises then "|raise" else ""))
             prog.steps)))

let prop_claim_exact =
  QCheck.Test.make
    ~name:"claimed follow-ups execute as scheduled ones: every loop"
    ~count:500
    (QCheck.make ~print:print_claim_program claim_program_gen)
    (fun prog ->
       List.for_all
         (fun drive ->
            claim_run ~claim:true drive prog = claim_run ~claim:false drive prog)
         drives)

(* A claim says yes only for the very next pop: not outside [run], not
   with a peer due at the same instant, and not under a scheduler. *)
let test_claim_now_cases () =
  let claims ?scheduler ~peer () =
    let engine = Engine.create ?scheduler () in
    let answer = ref None in
    Engine.schedule engine ~delay:1. (fun () ->
        answer := Some (Engine.claim_now engine));
    if peer then Engine.schedule engine ~delay:1. ignore;
    ignore (Engine.run engine : Engine.outcome);
    let inline = if !answer = Some true then 1 else 0 in
    Alcotest.(check int) "executed" (1 + Bool.to_int peer + inline)
      (Engine.executed_events engine);
    Alcotest.(check bool) "outside run" false (Engine.claim_now engine);
    !answer
  in
  Alcotest.(check (option bool)) "alone" (Some true) (claims ~peer:false ());
  Alcotest.(check (option bool)) "peer at the same instant" (Some false)
    (claims ~peer:true ());
  Alcotest.(check (option bool)) "under a scheduler" (Some false)
    (claims ~peer:false
       ~scheduler:
         { Engine.window = 0.; choose = (fun ~now:_ ~state_digest:_ _ -> 0) }
       ())

let test_wall_deadline_stops_run () =
  (* A self-perpetuating event chain: without the wall deadline this run
     never drains. *)
  let deadline = Unix.gettimeofday () +. 0.05 in
  let engine = Engine.create ~wall_deadline:deadline () in
  let rec perpetuate () =
    ignore (Engine.schedule engine ~delay:1. perpetuate)
  in
  perpetuate ();
  let outcome = Engine.run engine in
  let overshoot = Unix.gettimeofday () -. deadline in
  Alcotest.(check bool) "hit wall deadline" true
    (outcome = Engine.Hit_wall_deadline);
  (* Liveness backstop only: the run must terminate near the deadline
     rather than spin forever.  The bound is measured from the deadline
     itself and is deliberately generous — the deadline is probed every
     1024 trivial events, so the true overshoot is microseconds, but a
     loaded host can deschedule this process for whole seconds and a tight
     wall bound here would flake. *)
  Alcotest.(check bool) "overshoot bounded" true (overshoot < 10.);
  Alcotest.(check bool) "made progress first" true
    (Engine.executed_events engine > 0)

let test_wall_deadline_past_exits_promptly () =
  let engine = Engine.create ~wall_deadline:(Unix.gettimeofday () -. 1.) () in
  let rec perpetuate () =
    ignore (Engine.schedule engine ~delay:1. perpetuate)
  in
  perpetuate ();
  let outcome = Engine.run engine in
  Alcotest.(check bool) "hit wall deadline" true
    (outcome = Engine.Hit_wall_deadline);
  (* An already-expired deadline is noticed within one probe interval. *)
  Alcotest.(check bool) "at most one probe interval of events" true
    (Engine.executed_events engine <= 1025)

(* [create ~reuse]: an engine left over a budget with events pending comes
   back empty at time 0, its counters and budgets those of the new call;
   its pending events never run, and the kept arena still grows past its
   capacity. *)
let test_reuse_resets () =
  let e = Engine.create ~limit_events:10 () in
  let log = ref [] in
  for i = 0 to 39 do
    Engine.schedule e ~delay:(float_of_int (i + 1)) (fun () ->
        log := (`Old, i) :: !log)
  done;
  Alcotest.(check bool) "over budget" true (Engine.run e = Engine.Hit_event_limit);
  let e' = Engine.create ~reuse:e () in
  Alcotest.(check bool) "same engine" true (e' == e);
  Alcotest.(check (float 0.)) "time 0" 0. (Engine.now e);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending_events e);
  Alcotest.(check int) "counters reset" 0 (Engine.executed_events e);
  Alcotest.(check int) "depth reset" 0 (Engine.max_queue_depth e);
  log := [];
  let rng = Abe_prob.Rng.create ~seed:9 in
  let times = List.init 100 (fun _ -> Abe_prob.Rng.float rng 50.) in
  List.iteri
    (fun i time ->
       ignore (Engine.schedule_at e ~time (fun () -> log := (`New, i) :: !log)))
    times;
  Alcotest.(check int) "new events pending" 100 (Engine.pending_events e);
  Alcotest.(check bool) "budget of the new call" true (Engine.run e = Engine.Drained);
  let expected =
    List.map snd
      (List.stable_sort
         (fun (a, _) (b, _) -> Float.compare a b)
         (List.mapi (fun i t -> (t, (`New, i))) times))
  in
  Alcotest.(check bool) "only new events, in time order" true
    (List.rev !log = expected)

(* A tick round of [chains] perfect clocks over [rounds] instants: each
   tick reschedules its chain one unit ahead (the run), schedules a
   completion at the same instant (the lane), and every third one a
   message landing before the next round (the heap). *)
let tick_rounds e ~chains ~rounds log =
  let rec tick c k () =
    log := (c, k, Engine.now e) :: !log;
    ignore (Engine.schedule e ~delay:0. (fun () -> log := (c, -k, Engine.now e) :: !log));
    if (c + k) mod 3 = 0 then
      ignore
        (Engine.schedule e ~delay:0.5 (fun () ->
             log := (c, 1000 + k, Engine.now e) :: !log));
    if k < rounds then ignore (Engine.schedule e ~delay:1. (tick c (k + 1)))
  in
  for c = 0 to chains - 1 do
    ignore (Engine.schedule e ~delay:(if c = chains - 1 then 0.5 else 1.) (tick c 1))
  done

(* An engine abandoned mid-round — an action raised with events pending in
   the lane, the run and the heap — executes after [create ~reuse] exactly
   what a fresh engine executes. *)
let test_reuse_abandoned_run () =
  let e = Engine.create () in
  let stale = ref [] in
  tick_rounds e ~chains:12 ~rounds:50 stale;
  ignore
    (Engine.schedule e ~delay:7. (fun () ->
         ignore (Engine.schedule e ~delay:0. ignore);
         failwith "abandon"));
  (match Engine.run e with
   | _ -> Alcotest.fail "the run should have raised"
   | exception Failure _ -> ());
  Alcotest.(check bool) "abandoned with events pending" true
    (Engine.pending_events e > 12);
  let replay engine =
    let log = ref [] in
    tick_rounds engine ~chains:5 ~rounds:9 log;
    let outcome = Engine.run engine in
    (outcome, List.rev !log, Engine.executed_events engine,
     Engine.max_queue_depth engine)
  in
  let fresh = replay (Engine.create ()) in
  stale := [];
  let reused = replay (Engine.create ~reuse:e ()) in
  Alcotest.(check bool) "nothing from before the reset runs" true (!stale = []);
  Alcotest.(check bool) "same execution as a fresh engine" true (fresh = reused)

(* Minor words allocated by a run of [events] events on [e], reset in
   place, of one self-rescheduling chain per entry of [delays]. *)
let minor_words_of_run e ~delays ~events =
  let before = Gc.minor_words () in
  let e = Engine.create ~reuse:e ~limit_events:events () in
  Array.iter
    (fun delay ->
       let rec act () = ignore (Engine.schedule e ~delay act) in
       ignore (Engine.schedule e ~delay act))
    delays;
  Alcotest.(check bool) "event limit reached" true
    (Engine.run e = Engine.Hit_event_limit);
  Gc.minor_words () -. before

(* The fast loop allocates nothing per event, on the time-ordered run
   (equal delays) and on the heap (varied delays): on a warm engine a run
   of twice the events allocates exactly the same minor words, all of it
   per-run set-up. *)
let test_fast_loop_allocates_nothing () =
  let chains = 64 in
  List.iter
    (fun (label, delays) ->
       let e = Engine.create () in
       ignore (minor_words_of_run e ~delays ~events:100_000);
       let short = minor_words_of_run e ~delays ~events:100_000 in
       let long = minor_words_of_run e ~delays ~events:200_000 in
       Alcotest.(check (float 0.)) label short long)
    [ ("equal delays", Array.make chains 1.);
      ( "varied delays",
        Array.init chains (fun c -> 1. +. (float_of_int (c mod 7) /. 8.)) ) ]

let () =
  Alcotest.run "engine"
    [ ( "ordering",
        [ Alcotest.test_case "time order" `Quick test_runs_in_time_order;
          Alcotest.test_case "fifo ties" `Quick test_equal_times_fifo;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "zero delay" `Quick test_zero_delay_runs_now;
          Alcotest.test_case "now after queued peers" `Quick
            test_now_event_after_queued_peers;
          Alcotest.test_case "claim only the next pop" `Quick
            test_claim_now_cases ] );
      ( "arena",
        [ Alcotest.test_case "executed action is released" `Quick
            test_executed_action_released;
          Alcotest.test_case "pending actions survive a stopped run" `Quick
            test_pending_actions_survive_stop;
          Alcotest.test_case "reuse resets" `Quick test_reuse_resets;
          Alcotest.test_case "reuse after an abandoned run" `Quick
            test_reuse_abandoned_run;
          Alcotest.test_case "fast loop allocates nothing" `Quick
            test_fast_loop_allocates_nothing ] );
      ( "control",
        [ Alcotest.test_case "stop and resume" `Quick test_stop_and_resume;
          Alcotest.test_case "event limit" `Quick test_event_limit;
          Alcotest.test_case "wall deadline bounds overshoot" `Quick
            test_wall_deadline_stops_run;
          Alcotest.test_case "wall deadline already past" `Quick
            test_wall_deadline_past_exits_promptly;
          Alcotest.test_case "time limit" `Quick test_time_limit;
          Alcotest.test_case "time limit resume keeps fifo" `Quick
            test_time_limit_resume_keeps_fifo;
          Alcotest.test_case "pending count" `Quick test_pending_count ] );
      ( "counters",
        [ Alcotest.test_case "zero on fresh engine" `Quick
            test_counters_zero_on_fresh;
          Alcotest.test_case "track a run" `Quick test_counters_track_run;
          Alcotest.test_case "monotone across runs" `Quick
            test_counters_monotone_across_runs;
          Alcotest.test_case "stable across Hit_time_limit resume" `Quick
            test_counters_stable_across_time_limit_resume ] );
      ( "validation",
        [ Alcotest.test_case "schedule_at" `Quick test_schedule_at;
          Alcotest.test_case "past rejected" `Quick test_schedule_in_past_rejected;
          Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected;
          Alcotest.test_case "nan time rejected" `Quick test_nan_time_rejected ]
      );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_many_events_ordered; prop_lane_exact; prop_claim_exact ] ) ]
