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

let test_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let id = Engine.schedule engine ~delay:1. (fun () -> fired := true) in
  Engine.cancel engine id;
  Alcotest.(check bool) "drained" true (Engine.run engine = Engine.Drained);
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check int) "no events executed" 0 (Engine.executed_events engine)

let test_cancel_twice_harmless () =
  let engine = Engine.create () in
  let id = Engine.schedule engine ~delay:1. (fun () -> ()) in
  Engine.cancel engine id;
  Engine.cancel engine id;
  Alcotest.(check int) "pending" 0 (Engine.pending_events engine)

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
  (* [step] ignores the time budget: drain the deferred events and check
     they still fire in scheduling order. *)
  ignore (Engine.step engine);
  ignore (Engine.step engine);
  Alcotest.(check (list string)) "scheduling order survives resume"
    [ "early"; "a"; "b" ] (List.rev !log)

let test_cancel_after_execution_harmless () =
  (* Regression: cancelling an event that already ran must be a no-op.  An
     earlier representation marked the entry cancelled anyway, corrupting
     the pending-event count. *)
  let engine = Engine.create () in
  let id = Engine.schedule engine ~delay:1. (fun () -> ()) in
  ignore (Engine.run engine);
  Engine.cancel engine id;
  Alcotest.(check int) "pending uncorrupted" 0 (Engine.pending_events engine);
  Alcotest.(check int) "executed uncorrupted" 1 (Engine.executed_events engine);
  let fired = ref false in
  ignore (Engine.schedule engine ~delay:1. (fun () -> fired := true));
  Alcotest.(check int) "new event pending" 1 (Engine.pending_events engine);
  Alcotest.(check bool) "drains" true (Engine.run engine = Engine.Drained);
  Alcotest.(check bool) "new event fired" true !fired

let test_stale_handle_misses_recycled_slot () =
  (* The executed event's arena slot is recycled for the next schedule; the
     stale handle's generation no longer matches, so cancelling it must not
     touch the new occupant. *)
  let engine = Engine.create () in
  let stale = Engine.schedule engine ~delay:1. (fun () -> ()) in
  ignore (Engine.run engine);
  let fired = ref false in
  ignore (Engine.schedule engine ~delay:1. (fun () -> fired := true));
  Engine.cancel engine stale;
  Alcotest.(check int) "occupant still pending" 1
    (Engine.pending_events engine);
  ignore (Engine.run engine);
  Alcotest.(check bool) "occupant fired" true !fired

(* Builds the action in a helper so the test body holds no reference to the
   payload: after execution only the arena could keep it alive. *)
let weak_action w =
  let payload = Bytes.create 4096 in
  Weak.set w 0 (Some payload);
  fun () -> ignore (Bytes.length payload)

let test_executed_action_released () =
  (* Executing an event nulls its action slot, so the closure — and any
     message payload it captures — must be collectable immediately, not
     pinned until the slot happens to be recycled. *)
  let engine = Engine.create () in
  let w = Weak.create 1 in
  ignore (Engine.schedule engine ~delay:1. (weak_action w));
  ignore (Engine.run engine);
  Gc.full_major ();
  Alcotest.(check bool) "payload collected" false (Weak.check w 0)

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

let test_step () =
  let engine = Engine.create () in
  let count = ref 0 in
  ignore (Engine.schedule engine ~delay:1. (fun () -> incr count));
  ignore (Engine.schedule engine ~delay:2. (fun () -> incr count));
  Alcotest.(check bool) "step one" true (Engine.step engine);
  Alcotest.(check int) "one executed" 1 !count;
  Alcotest.(check bool) "step two" true (Engine.step engine);
  Alcotest.(check bool) "nothing left" false (Engine.step engine)

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
  let a = Engine.schedule engine ~delay:1. (fun () -> ()) in
  let _ = Engine.schedule engine ~delay:2. (fun () -> ()) in
  Alcotest.(check int) "two pending" 2 (Engine.pending_events engine);
  Engine.cancel engine a;
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

let test_counters_ignore_cancelled () =
  let engine = Engine.create () in
  let a = Engine.schedule engine ~delay:1. (fun () -> ()) in
  let _ = Engine.schedule engine ~delay:2. (fun () -> ()) in
  Engine.cancel engine a;
  ignore (Engine.run engine);
  let c = Engine.counters engine in
  Alcotest.(check int) "only live event executed" 1 c.Engine.executed;
  Alcotest.(check int) "depth counted both while live" 2 c.Engine.max_queue_depth

let test_observer_sees_every_event () =
  let engine = Engine.create () in
  let seen = ref [] in
  Engine.set_observer engine (fun time -> seen := time :: !seen);
  List.iter
    (fun delay -> ignore (Engine.schedule engine ~delay (fun () -> ())))
    [ 3.; 1.; 2. ];
  ignore (Engine.run engine);
  Alcotest.(check (list (float 1e-9))) "called once per event, with its time"
    [ 1.; 2.; 3. ] (List.rev !seen)

let test_observer_sees_step () =
  let engine = Engine.create () in
  let calls = ref 0 in
  Engine.set_observer engine (fun _ -> incr calls);
  ignore (Engine.schedule engine ~delay:1. (fun () -> ()));
  ignore (Engine.step engine);
  Alcotest.(check int) "observer fires under step" 1 !calls

let test_observer_after_action () =
  (* The observer is a post-condition probe: it must run after the event's
     action, seeing the state the action left behind. *)
  let engine = Engine.create () in
  let state = ref 0 and observed = ref (-1) in
  Engine.set_observer engine (fun _ -> observed := !state);
  ignore (Engine.schedule engine ~delay:1. (fun () -> state := 7));
  ignore (Engine.run engine);
  Alcotest.(check int) "sees post-action state" 7 !observed

let test_clear_observer () =
  let engine = Engine.create () in
  let calls = ref 0 in
  Engine.set_observer engine (fun _ -> incr calls);
  ignore (Engine.schedule engine ~delay:1. (fun () -> ()));
  ignore (Engine.run engine);
  Engine.clear_observer engine;
  ignore (Engine.schedule engine ~delay:1. (fun () -> ()));
  ignore (Engine.run engine);
  Alcotest.(check int) "no calls after clear" 1 !calls

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

(* Random programs for the lane-exactness property.  Event k (in execution
   order) follows script entry k, if there is one: it schedules children at
   the given delays (0 lands in the same-instant lane), cancels the handles
   of earlier-scheduled events, and may stop the run.  The reference keeps
   a plain pending list and always executes its least [(time, seq)]. *)
type entry = {
  children : float list;
  cancels : int list;  (* indices into the events scheduled so far *)
  stop : bool;
}

type program = {
  roots : float list;
  script : entry array;
  limit : float;  (* the engine's [limit_time] *)
}

let reference_order prog =
  let pending = ref [] and scheduled = ref 0 and clock = ref 0. in
  let add delay =
    pending := (!clock +. delay, !scheduled) :: !pending;
    incr scheduled
  in
  List.iter add prog.roots;
  let log = ref [] and executed = ref 0 in
  let earliest (t1, s1) (t2, s2) =
    if t1 < t2 || (t1 = t2 && s1 < s2) then (t1, s1) else (t2, s2)
  in
  while !pending <> [] do
    let ((time, id) as first) =
      List.fold_left earliest (List.hd !pending) !pending
    in
    pending := List.filter (fun e -> e <> first) !pending;
    clock := time;
    log := id :: !log;
    if !executed < Array.length prog.script then begin
      let e = prog.script.(!executed) in
      List.iter add e.children;
      List.iter
        (fun k ->
           let victim = k mod !scheduled in
           pending := List.filter (fun (_, id) -> id <> victim) !pending)
        e.cancels
    end;
    incr executed
  done;
  List.rev !log

type drive = By_run | By_step | By_scheduler

let engine_order drive prog =
  let scheduler =
    match drive with
    | By_scheduler ->
      Some
        { Engine.window = 1.5;
          choose = (fun ~now:_ ~state_digest:_ _ -> 0) }
    | By_run | By_step -> None
  in
  let engine = Engine.create ?scheduler ~limit_time:prog.limit () in
  let handles = ref [||] and scheduled = ref 0 in
  let log = ref [] and executed = ref 0 in
  let rec add delay =
    let id = !scheduled in
    incr scheduled;
    let h = Engine.schedule engine ~delay (fun () -> fire id) in
    if id >= Array.length !handles then
      handles := Array.append !handles (Array.make (id + 1) h);
    !handles.(id) <- h
  and fire id =
    log := id :: !log;
    if !executed < Array.length prog.script then begin
      let e = prog.script.(!executed) in
      List.iter add e.children;
      List.iter
        (fun k -> Engine.cancel engine !handles.(k mod !scheduled))
        e.cancels;
      if e.stop then Engine.stop engine
    end;
    incr executed
  in
  List.iter add prog.roots;
  (match drive with
   | By_step -> while Engine.step engine do () done
   | By_run | By_scheduler ->
     (* Resume after every stop; past the time budget, only [step] goes
        on (it ignores budgets). *)
     let rec go () =
       match Engine.run engine with
       | Engine.Stopped -> go ()
       | Engine.Hit_time_limit -> while Engine.step engine do () done
       | Engine.Drained | Engine.Hit_event_limit | Engine.Hit_wall_deadline ->
         ()
     in
     go ());
  List.rev !log

let program_gen =
  let open QCheck.Gen in
  let delay = oneofl [ 0.; 0.; 0.; 0.5; 1.; 1.; 2. ] in
  let entry =
    map3
      (fun children cancels stop -> { children; cancels; stop })
      (list_size (int_bound 3) delay)
      (list_size (int_bound 1) nat)
      (frequency [ (1, return true); (9, return false) ])
  in
  map3
    (fun roots script limit -> { roots; script = Array.of_list script; limit })
    (list_size (int_range 1 6) delay)
    (list_size (int_bound 80) entry)
    (oneofl [ 1.; 2.5; infinity ])

let print_program prog =
  Printf.sprintf "roots=[%s] limit=%g script=[%s]"
    (String.concat ";" (List.map string_of_float prog.roots))
    prog.limit
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun e ->
                Printf.sprintf "{%s|%s%s}"
                  (String.concat "," (List.map string_of_float e.children))
                  (String.concat "," (List.map string_of_int e.cancels))
                  (if e.stop then "|stop" else ""))
             prog.script)))

let prop_lane_exact =
  QCheck.Test.make
    ~name:"same-instant lane keeps (time, seq) order: run, step, scheduler"
    ~count:300
    (QCheck.make ~print:print_program program_gen)
    (fun prog ->
       let expected = reference_order prog in
       List.for_all
         (fun drive -> engine_order drive prog = expected)
         [ By_run; By_step; By_scheduler ])

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
   its pending events never run, a handle from before the reset cannot
   cancel anything, and the kept arena still grows past its capacity. *)
let test_reuse_resets () =
  let e = Engine.create ~limit_events:10 () in
  let log = ref [] in
  let handles =
    List.init 40 (fun i ->
        Engine.schedule e ~delay:(float_of_int (i + 1)) (fun () ->
            log := (`Old, i) :: !log))
  in
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
  (* Stale handles: every one of them addresses a slot now reused. *)
  List.iter (Engine.cancel e) handles;
  Alcotest.(check int) "stale cancels are no-ops" 100 (Engine.pending_events e);
  Alcotest.(check bool) "budget of the new call" true (Engine.run e = Engine.Drained);
  let expected =
    List.map snd
      (List.stable_sort
         (fun (a, _) (b, _) -> Float.compare a b)
         (List.mapi (fun i t -> (t, (`New, i))) times))
  in
  Alcotest.(check bool) "only new events, in time order" true
    (List.rev !log = expected)

let () =
  Alcotest.run "engine"
    [ ( "ordering",
        [ Alcotest.test_case "time order" `Quick test_runs_in_time_order;
          Alcotest.test_case "fifo ties" `Quick test_equal_times_fifo;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "zero delay" `Quick test_zero_delay_runs_now;
          Alcotest.test_case "now after queued peers" `Quick
            test_now_event_after_queued_peers ] );
      ( "cancel",
        [ Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "cancel twice" `Quick test_cancel_twice_harmless;
          Alcotest.test_case "cancel after execution" `Quick
            test_cancel_after_execution_harmless;
          Alcotest.test_case "stale handle, recycled slot" `Quick
            test_stale_handle_misses_recycled_slot ] );
      ( "arena",
        [ Alcotest.test_case "executed action is released" `Quick
            test_executed_action_released;
          Alcotest.test_case "reuse resets" `Quick test_reuse_resets ] );
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
          Alcotest.test_case "step" `Quick test_step;
          Alcotest.test_case "pending count" `Quick test_pending_count ] );
      ( "counters",
        [ Alcotest.test_case "zero on fresh engine" `Quick
            test_counters_zero_on_fresh;
          Alcotest.test_case "track a run" `Quick test_counters_track_run;
          Alcotest.test_case "monotone across runs" `Quick
            test_counters_monotone_across_runs;
          Alcotest.test_case "stable across Hit_time_limit resume" `Quick
            test_counters_stable_across_time_limit_resume;
          Alcotest.test_case "cancelled events" `Quick
            test_counters_ignore_cancelled ] );
      ( "observer",
        [ Alcotest.test_case "sees every event" `Quick
            test_observer_sees_every_event;
          Alcotest.test_case "fires under step" `Quick test_observer_sees_step;
          Alcotest.test_case "runs after the action" `Quick
            test_observer_after_action;
          Alcotest.test_case "clear" `Quick test_clear_observer ] );
      ( "validation",
        [ Alcotest.test_case "schedule_at" `Quick test_schedule_at;
          Alcotest.test_case "past rejected" `Quick test_schedule_in_past_rejected;
          Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected ]
      );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_many_events_ordered; prop_lane_exact ] ) ]
