(* The repository benchmark: ring elections on both backends, timed from
   outside through the libraries' public functions.

   [--trace 0] runs one workload for the requested number of seconds and
   prints its end-to-end metrics; [--trace 1] runs the per-layer ladder
   (Engine -> Network -> Runner -> observation hooks, and Wire -> Holdq ->
   Elect_real on the real backend) and prints the per-layer metrics.  The
   last line of standard output is always one JSON object.  See README.md
   for why each workload exists and which metric each layer should move. *)

open Abe_core

(* Host seconds on the monotonic clock, at nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------ statistics *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let k = Array.length a in
  if k = 0 then nan
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = sorted xs in
  let k = Array.length a in
  if k = 0 then nan
  else a.(max 0 (min (k - 1) (int_of_float (ceil (p *. float_of_int k)) - 1)))

let sum_f f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let sum_i f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        (match Scanf.sscanf line "VmHWM: %d kB" (fun kb -> kb) with
         | kb -> float_of_int kb
         | exception _ -> scan ())
    in
    let kb = scan () in
    close_in ic;
    kb

(* ------------------------------------------------------------- workloads *)

type sim = {
  config : Runner.config;
  observed : bool;
      (* metrics registry, causal recorder and the oracle on, plus
         [Critpath.analyze] after every election *)
}

type backend = Sim of sim | Real of Abe_substrate.Elect_real.config

type workload = {
  name : string;
  backend : backend;
  elections : int;  (* length of the seed list *)
}

(* The CLI-default regime: exponential delay with δ = 1, θ = 1 (so a0 is
   [Analysis.recommended_a0]), perfect clocks, γ = 0.  Ticks dominate. *)
let ticks_config n =
  Runner.config ~n
    ~a0:(Analysis.recommended_a0 ~theta:1. n)
    ~params:Params.default ()

(* bench/engine_core.ml's sub-tick regime: δ = 0.1/n, a0 = 1/n, so a token
   laps the ring between tick rounds and the message path and ring
   construction dominate.  The O(n^2) mass sampling and the phase log are
   off, as in that bench. *)
let tokens_config n =
  let inv_n = 1. /. float_of_int n in
  let params =
    Params.make ~delta:(0.1 *. inv_n) ~gamma:0. ~clock:Abe_net.Clock.perfect
  in
  Runner.config ~n ~a0:inv_n ~params ~limit_events:2_000_000_000
    ~record_mass:false ~record_phases:false ()

let real_n = 4
(* 2 ms per time unit: waking a halted vCPU on a busy host can take a few
   hundred microseconds, which at 0.5 ms per unit stretched elections by
   up to 45% whenever other tenants were busy. *)
let real_scale = 0.002

let real_config () =
  Abe_substrate.Elect_real.config ~n:real_n
    ~a0:(Analysis.recommended_a0 ~theta:1. real_n)
    ~params:Params.default ~scale:real_scale ~wall_timeout:30.
    ~spawn_mode:Abe_substrate.Cluster.Threads ()

(* Ring sizes and list lengths are set by the run budget: a simulated list
   is replayed in several passes (see [end_to_end]), yet it must hold
   hundreds of distinct elections, because election cost is heavy-tailed
   and a short list makes its quantiles depend on the seed base. *)
let ticks_n = 48
let tokens_n = 2000

(* Real elections cannot be replayed, so real-ring's list fills the run. *)
let real_per_second = 34

let workload name ~seconds =
  let sim config observed = Sim { config; observed } in
  match name with
  | "sim-ticks" ->
    Some { name; backend = sim (ticks_config ticks_n) false; elections = 1440 }
  | "sim-tokens" ->
    Some { name; backend = sim (tokens_config tokens_n) false; elections = 720 }
  | "sim-observed" ->
    Some { name; backend = sim (ticks_config ticks_n) true; elections = 880 }
  | "real-ring" ->
    Some
      { name;
        backend = Real (real_config ());
        elections =
          max 1 (int_of_float (float_of_int real_per_second *. seconds)) }
  | _ -> None

let workload_names = [ "sim-ticks"; "sim-tokens"; "sim-observed"; "real-ring" ]

(* Seed base [b] owns election seeds (b-1)·k+1 .. b·k, so distinct bases
   never share an election and base 1 is seeds 1..k. *)
let seed_of ~base ~k i = ((base - 1) * k) + i

(* --------------------------------------------------------------- samples *)

type sample = {
  seed : int;
  wall : float;  (* host seconds for the whole call (critpath included) *)
  run_wall : float;  (* host seconds the election spent inside the engine
                        (sim) or between cluster start and stop (real) *)
  setup : float;  (* host seconds outside the run proper *)
  events : int;  (* engine events (sim); deliveries + ticks (real) *)
  messages : int;
  ticks : int;
  depth : int;  (* event-queue high-water mark (sim) *)
  abe_seconds : float;  (* elected_at × scale; scale = 1 s per unit in sim *)
  ok : bool;
  fidelity : Abe_substrate.Telemetry.Fidelity.summary;
}

let sim_election sim ~seed =
  let metrics =
    if sim.observed then Some (Abe_sim.Metrics.create ()) else None
  in
  let causal = if sim.observed then Some (Abe_sim.Causal.create ()) else None in
  let t0 = now () in
  let o = Runner.run ?metrics ?causal ~check:sim.observed ~seed sim.config in
  let t1 = now () in
  let path_ok =
    match causal with
    | None -> true
    | Some c -> Option.is_some (Abe_sim.Critpath.analyze c)
  in
  let t2 = now () in
  { seed;
    wall = t2 -. t0;
    run_wall = o.Runner.wall_time;
    setup = t1 -. t0 -. o.Runner.wall_time;
    events = o.Runner.executed_events;
    messages = o.Runner.messages;
    ticks = o.Runner.ticks;
    depth = o.Runner.max_queue_depth;
    abe_seconds = o.Runner.elected_at;
    ok =
      o.Runner.elected && o.Runner.leader_count = 1
      && o.Runner.violations = [] && o.Runner.stalled = None && path_ok;
    fidelity = Abe_substrate.Telemetry.Fidelity.empty }

let real_election ?telemetry cfg ~seed =
  let t0 = now () in
  let r = Abe_substrate.Elect_real.run ?telemetry ~seed cfg in
  let t1 = now () in
  match r with
  | Error msg ->
    Printf.eprintf "real-ring seed %d: %s\n%!" seed msg;
    { seed; wall = t1 -. t0; run_wall = t1 -. t0; setup = 0.; events = 0;
      messages = 0; ticks = 0; depth = 0; abe_seconds = 0.; ok = false;
      fidelity = Abe_substrate.Telemetry.Fidelity.empty }
  | Ok o ->
    let open Abe_substrate.Elect_real in
    let abe = o.elected_at *. cfg.scale in
    { seed;
      wall = t1 -. t0;
      run_wall = o.wall_time;
      setup = o.wall_time -. abe;
      events = o.delivered + o.ticks;
      messages = o.messages;
      ticks = o.ticks;
      depth = 0;
      abe_seconds = abe;
      ok = o.elected && Option.is_some o.leader && o.stats_missing = 0;
      fidelity = o.fidelity }

let election w ~seed =
  match w.backend with
  | Sim s -> sim_election s ~seed
  | Real c -> real_election c ~seed

(* ------------------------------------------------------------------ pins *)

(* Total (events, messages, ticks) over the seed list of a seed base: the
   simulator is deterministic in its seed, so a speed-only change must leave
   these identical.  Rows are "workload base elections events messages
   ticks"; [--print-pins] regenerates them. *)
let load_pins path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line when String.length line = 0 || line.[0] = '#' -> loop acc
    | line ->
      (match
         Scanf.sscanf line "%s %d %d %d %d %d" (fun w b k e m t ->
             ((w, b, k), (e, m, t)))
       with
       | row -> loop (row :: acc)
       | exception _ -> failwith ("malformed pin row: " ^ line))
  in
  let rows = loop [] in
  close_in ic;
  rows

let totals samples =
  ( sum_i (fun s -> s.events) samples,
    sum_i (fun s -> s.messages) samples,
    sum_i (fun s -> s.ticks) samples )

(* ------------------------------------------------------------- reporting *)

type metric = { mname : string; value : float; unit_ : string }

let metric mname unit_ value = { mname; value; unit_ }

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "%-34s %.6g %s\n" m.mname m.value m.unit_)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
            (* JSON has no NaN or infinity; such a run is failed anyway. *)
            let value =
              if Float.is_finite m.value then Printf.sprintf "%.17g" m.value
              else "null"
            in
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.mname value
              m.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \
     \"metrics\": {%s}}\n%!"
    correct attempted failed body

let non_finite metrics =
  List.filter (fun m -> not (Float.is_finite m.value)) metrics

(* ------------------------------------------------- end-to-end (trace 0) *)

let seeds ~base ~k = List.init k (fun i -> seed_of ~base ~k (i + 1))

(* The simulator replays an election exactly, so a simulated seed list
   runs in passes until [seconds] is up (at least [min_passes]) and each
   election keeps its best corrected timing: contention the gauge misses
   only ever adds time, and passes seconds apart rarely all meet it.  A
   replay that executes differently is a correctness miss.  Real elections
   follow OS timing, do not replay, and run once; most of their time is
   emulated delay, which the gauge must not scale. *)
let min_passes = 2

(* Contention gauge.  The host's vCPUs share physical cores with other
   tenants, and a busy sibling slows this code by up to ~1.8x for seconds
   to minutes at a time.  A fixed loop of eight independent integer
   streams (high instruction-level parallelism, no memory traffic) slows
   by about the same factor, while latency-bound loops barely move.  It
   runs between consecutive simulated elections; an election's times are
   scaled by [gauge_nominal] over the mean of the gauge readings on either
   side of it, capped at 1 so that no time is ever scaled up.  The nominal
   reading is the fastest seen on the measuring host (2.16 ns per
   iteration; Xeon, KVM guest). *)
let gauge_iters = 50_000
let gauge_nominal = 2.16e-9 *. float_of_int gauge_iters

let gauge () =
  let t0 = now () in
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  let e = ref 5 and f = ref 6 and g = ref 7 and h = ref 8 in
  for i = 1 to gauge_iters do
    a := (!a * 1103515245) + i;
    b := (!b * 1103515245) + 3;
    c := (!c * 22695477) + i;
    d := (!d * 22695477) + 5;
    e := (!e lxor i) + 7;
    f := (!f lxor (i lsl 1)) + 9;
    g := !g + (!g lsr 3) + i;
    h := !h + (!h lsr 5) + 1
  done;
  ignore (Sys.opaque_identity (!a + !b + !c + !d + !e + !f + !g + !h));
  now () -. t0

let corrected factor s =
  { s with
    wall = s.wall *. factor;
    run_wall = s.run_wall *. factor;
    setup = s.setup *. factor }

(* One pass over the list; simulated elections come back corrected, with
   the mean correction factor of the pass. *)
let run_pass w list =
  match w.backend with
  | Real _ ->
    (Array.of_list (List.map (fun seed -> election w ~seed) list), 1.)
  | Sim _ ->
    let before = ref (gauge ()) and factors = ref 0. in
    let pass =
      List.map
        (fun seed ->
           let s = election w ~seed in
           let after = gauge () in
           let factor =
             Float.min 1. (2. *. gauge_nominal /. (!before +. after))
           in
           before := after;
           factors := !factors +. factor;
           corrected factor s)
        list
    in
    (Array.of_list pass, !factors /. float_of_int (List.length list))

let run_passes w ~list ~seconds =
  let t0 = now () in
  let rec go acc =
    let t = now () in
    let pass = run_pass w list in
    let acc = pass :: acc in
    let finish = now () in
    let replay = match w.backend with Sim _ -> true | Real _ -> false in
    let time_left = finish -. t0 +. (finish -. t) <= seconds in
    if replay && (List.length acc < min_passes || time_left) then go acc
    else List.rev acc
  in
  go []

let best_of = function
  | [] -> invalid_arg "best_of"
  | first :: rest ->
    List.fold_left
      (fun b s ->
         { b with
           wall = Float.min b.wall s.wall;
           run_wall = Float.min b.run_wall s.run_wall;
           setup = Float.min b.setup s.setup;
           ok =
             b.ok && s.ok
             && (s.events, s.messages, s.ticks)
                = (b.events, b.messages, b.ticks) })
      first rest

(* A simulated list's totals must match the pin for its seed base. *)
let pin_miss w ~base ~k ~pins samples =
  match List.assoc_opt (w.name, base, k) pins with
  | None ->
    Printf.eprintf
      "%s: no pinned totals for seed base %d with %d elections; checking \
       replays only\n%!"
      w.name base k;
    false
  | Some expected ->
    let ((e, m, t) as got) = totals samples in
    if got <> expected then
      Printf.eprintf
        "%s: totals events=%d messages=%d ticks=%d differ from the pin\n%!"
        w.name e m t;
    got <> expected

let end_to_end w ~base ~k ~seconds ~pins =
  let list = seeds ~base ~k in
  let fds_before = Abe_substrate.Cluster.open_fd_count () in
  let runs, factors = List.split (run_passes w ~list ~seconds) in
  let fd_miss = fds_before <> Abe_substrate.Cluster.open_fd_count () in
  if fd_miss then prerr_endline "open file descriptors changed across the run";
  let passes = List.length runs in
  let samples =
    List.mapi (fun i _ -> best_of (List.map (fun r -> r.(i)) runs)) list
  in
  let list_miss =
    match w.backend with
    | Sim _ -> pin_miss w ~base ~k ~pins samples
    | Real _ -> false
  in
  let attempted = List.length samples in
  let misses = sum_i (fun s -> if s.ok then 0 else 1) samples in
  (* A miss of the whole list fails every election in it. *)
  let failed = if fd_miss || list_miss then attempted else misses in
  let list_wall = sum_f (fun s -> s.wall) samples in
  let ms = List.map (fun s -> 1000. *. s.wall) samples in
  let metrics =
    [ metric "elections_per_s" "1/s"
        (float_of_int (attempted - misses) /. list_wall);
      metric "events_per_s" "1/s"
        (float_of_int (sum_i (fun s -> s.events) samples)
         /. sum_f (fun s -> s.run_wall) samples);
      metric "election_ms_p50" "ms" (median ms);
      metric "election_ms_p95" "ms" (percentile 0.95 ms);
      metric "setup_s" "s" (median (List.map (fun s -> s.setup) samples));
      metric "peak_rss_mb" "MB" (vm_hwm_kb () /. 1024.);
      metric "wall_per_abe" "ratio"
        (list_wall /. sum_f (fun s -> s.abe_seconds) samples) ]
  in
  Printf.printf "workload %s: seed base %d, %d elections x %d passes\n" w.name
    base attempted passes;
  Printf.printf "contention correction factor per pass: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") factors));
  Printf.printf "%-34s %.6g %s\n" "failed_frac"
    (float_of_int failed /. float_of_int attempted) "ratio";
  (attempted, failed, metrics)

(* ---------------------------------------------------------------- spans *)

(* Spans recorded from this file around calls into each layer.  They stay
   in memory and are written as a Chrome trace-event file at the end. *)
type span = {
  sid : int;
  parent : int;  (* 0 = root *)
  sname : string;
  trace_id : int;  (* election seed; 0 for ladder rungs *)
  t_start : float;
  t_end : float;
}

let spans = ref []
let next_sid = ref 0

let record_span ?(parent = 0) ?(trace_id = 0) sname t_start t_end =
  incr next_sid;
  spans :=
    { sid = !next_sid; parent; sname; trace_id; t_start; t_end } :: !spans;
  !next_sid

(* Rungs are measured first and recorded after, so a rung's own span
   covers exactly the calls it times. *)
let rung ~parent sname f =
  let t0 = now () in
  let r = f () in
  ignore (record_span ~parent ("rung:" ^ sname) t0 (now ()));
  r

let write_spans path =
  let oc = open_out path in
  let origin =
    List.fold_left (fun acc s -> Float.min acc s.t_start) infinity !spans
  in
  let us t = (t -. origin) *. 1e6 in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
       Printf.fprintf oc
         "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": \
          %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \
          \"trace_id\": %d}}\n"
         (if i = 0 then "" else ",")
         s.sname (us s.t_start) (us s.t_end -. us s.t_start) s.sid s.parent
         s.trace_id)
    (List.rev !spans);
  output_string oc "]}\n";
  close_out oc

(* ------------------------------------------------ per-layer (trace 1) *)

module Null_protocol = struct
  type state = unit
  type message = unit

  let pp_state ppf () = Format.pp_print_string ppf "()"
  let pp_message ppf () = Format.pp_print_string ppf "()"
end

module Null_net = Abe_net.Network.Make (Null_protocol)

(* Median of [reps] measurements of a pair, taken component-wise. *)
let median_pair reps f =
  let r = List.init reps (fun _ -> f ()) in
  (median (List.map fst r), median (List.map snd r))

(* Raw engine: [depth] self-rescheduling chains, so [depth] is the queue
   depth; returns (host seconds, bytes allocated, events). *)
let engine_chains ~depth ~events =
  let e = Abe_sim.Engine.create ~limit_events:events () in
  for _ = 1 to depth do
    let rec act () = ignore (Abe_sim.Engine.schedule e ~delay:1.0 act) in
    ignore (Abe_sim.Engine.schedule e ~delay:1.0 act)
  done;
  (* Promote everything allocated so far, so no promotion of older blocks
     is subtracted from the run's own allocation. *)
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  ignore (Abe_sim.Engine.run e);
  let dt = now () -. t0 in
  let alloc = Gc.allocated_bytes () -. a0 in
  (dt, alloc, float_of_int (Abe_sim.Engine.executed_events e))

(* Returns (ns/event, B/event).  Allocation is the difference between a
   run of [events] and one of [events/2], so the fixed cost of measuring
   cancels and an allocation-free loop reads exactly 0. *)
let engine_rung ~depth ~events =
  let _, half_alloc, half_ev = engine_chains ~depth ~events:(events / 2) in
  let dt, alloc, ev = engine_chains ~depth ~events in
  (dt *. 1e9 /. ev, (alloc -. half_alloc) /. (ev -. half_ev))

let null_config ~n ~delta ~ticks =
  let topology = Abe_net.Topology.ring n in
  let delay = Abe_net.Delay_model.abe_exponential ~delta in
  { (Null_net.default_config ~topology ~delay) with
    Null_net.ticks_enabled = ticks }

let idle_handlers =
  { Null_net.init = (fun _ -> ());
    on_message = (fun _ s () -> s);
    on_tick = (fun _ s -> s) }

(* Ticks-only null ring at [n]: returns (ns/event, events per tick). *)
let network_ticks ~n ~delta ~events =
  let net =
    Null_net.create ~limit_events:events ~seed:1
      (null_config ~n ~delta ~ticks:true) idle_handlers
  in
  ignore (Null_net.run net);
  let c = Null_net.counters net in
  let ev = float_of_int c.Abe_sim.Engine.executed in
  ( c.Abe_sim.Engine.wall_time *. 1e9 /. ev,
    ev /. float_of_int (Null_net.stats net).Abe_net.Network.ticks )

(* Null ring forwarding one token, ticks off: returns (ns/event, events per
   delivered message). *)
let network_token ~n ~delta ~events =
  let handlers =
    { Null_net.init =
        (fun ctx -> if ctx.Null_net.node = 0 then ctx.Null_net.send 0 ());
      on_message = (fun ctx s () -> ctx.Null_net.send 0 (); s);
      on_tick = (fun _ s -> s) }
  in
  let net =
    Null_net.create ~limit_events:events ~seed:1
      (null_config ~n ~delta ~ticks:false) handlers
  in
  ignore (Null_net.run net);
  let c = Null_net.counters net in
  let ev = float_of_int c.Abe_sim.Engine.executed in
  ( c.Abe_sim.Engine.wall_time *. 1e9 /. ev,
    ev /. float_of_int (Null_net.stats net).Abe_net.Network.delivered )

(* [Network.create] alone: returns (ms, B/node). *)
let network_create ~n ~delta =
  let config = null_config ~n ~delta ~ticks:true in
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let net = Null_net.create ~seed:1 config idle_handlers in
  let dt = now () -. t0 in
  let alloc = Gc.allocated_bytes () -. a0 in
  ignore (Sys.opaque_identity net);
  (dt *. 1e3, alloc /. float_of_int n)

(* Real-ring's data frames: Send and Deliver carrying a 16-byte token, half
   of them with a trace context. *)
let wire_frames =
  Array.init 1024 (fun i ->
      let payload = String.init 16 (fun j -> Char.chr ((i + j) land 255)) in
      let trace =
        if i land 2 = 0 then None
        else
          Some
            { Abe_substrate.Wire.span = i;
              lamport = 3 * i;
              at = float_of_int i }
      in
      let link = i mod real_n in
      if i land 1 = 0 then Abe_substrate.Wire.Send { link; payload; trace }
      else Abe_substrate.Wire.Deliver { link; payload; trace })

(* Returns ns per encoded frame. *)
let wire_encode ~reps =
  let t0 = now () in
  for _ = 1 to reps do
    Array.iter
      (fun f -> ignore (Sys.opaque_identity (Abe_substrate.Wire.encode f)))
      wire_frames
  done;
  (now () -. t0) *. 1e9 /. float_of_int (reps * Array.length wire_frames)

(* Returns (ns per decoded frame, frames round-tripped exactly). *)
let wire_decode ~reps =
  let stream =
    Bytes.concat Bytes.empty
      (Array.to_list (Array.map Abe_substrate.Wire.encode wire_frames))
  in
  let chunk = 4096 in
  let chunks =
    List.init
      ((Bytes.length stream + chunk - 1) / chunk)
      (fun i ->
         let off = i * chunk in
         Bytes.sub stream off (min chunk (Bytes.length stream - off)))
  in
  let decode_all () =
    let r = Abe_substrate.Wire.reader () in
    let rec drain got =
      match Abe_substrate.Wire.next r with
      | Ok (Some f) -> drain (f :: got)
      | Ok None -> Ok got
      | Error e -> Error e
    in
    List.fold_left
      (fun acc c ->
         Result.bind acc (fun got ->
             Abe_substrate.Wire.feed r c (Bytes.length c);
             drain got))
      (Ok []) chunks
  in
  let exact =
    match decode_all () with
    | Ok got -> List.rev got = Array.to_list wire_frames
    | Error e ->
      prerr_endline ("wire decode: " ^ e);
      false
  in
  let t0 = now () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (decode_all ()))
  done;
  let frames = reps * Array.length wire_frames in
  ((now () -. t0) *. 1e9 /. float_of_int frames, exact)

(* Holdq at depth [depth]: each op pops the earliest frame and pushes one
   due later.  Returns (ns per push + pop_due pair, popped in due order). *)
let holdq_ops ~depth ~ops =
  let q = Abe_substrate.Holdq.create () in
  let state = ref 12345 in
  let jitter () =
    state := (!state * 1103515245 + 12345) land 0x3fffffff;
    float_of_int (!state land 0xffff) /. 65536.
  in
  for i = 1 to depth do
    Abe_substrate.Holdq.push q ~due:(jitter ()) i
  done;
  let ordered = ref true and last = ref neg_infinity in
  let t0 = now () in
  for i = 1 to ops do
    match Abe_substrate.Holdq.next_due q with
    | None -> ordered := false
    | Some due ->
      if due < !last then ordered := false;
      last := due;
      (match Abe_substrate.Holdq.pop_due q ~now:due with
       | Some _ -> Abe_substrate.Holdq.push q ~due:(due +. jitter ()) i
       | None -> ordered := false)
  done;
  ((now () -. t0) *. 1e9 /. float_of_int ops, !ordered)

let sim_config_of w =
  match w.backend with Sim s -> s.config | Real _ -> ticks_config real_n

type ladder = {
  mutable attempted : int;
  mutable failed : int;
  mutable out : metric list;
}

let check lad what ok =
  if not ok then begin
    Printf.eprintf "correctness: %s\n%!" what;
    lad.failed <- lad.failed + 1
  end

let publish lad name unit_ value = lad.out <- metric name unit_ value :: lad.out

let count_elections lad samples =
  lad.attempted <- lad.attempted + List.length samples;
  List.iter
    (fun s -> check lad (Printf.sprintf "election seed %d" s.seed) s.ok)
    samples

(* Time the workload's own elections with and without the per-election
   spans, interleaved so drift on the host hits both sides alike. *)
let traced_pass lad w ~root ~seeds =
  let untraced = ref 0. and traced = ref 0. in
  let plain seed =
    let t0 = now () in
    let s = election w ~seed in
    untraced := !untraced +. (now () -. t0);
    s
  in
  let spanned seed =
    let t0 = now () in
    let s = election w ~seed in
    let t1 = now () in
    let id = record_span ~parent:root ~trace_id:seed "election" t0 t1 in
    ignore (record_span ~parent:id ~trace_id:seed "setup" t0 (t0 +. s.setup));
    ignore
      (record_span ~parent:id ~trace_id:seed "engine" (t0 +. s.setup)
         (t0 +. s.setup +. s.run_wall));
    traced := !traced +. (now () -. t0);
    s
  in
  List.iteri
    (fun i seed ->
       let pair =
         if i land 1 = 0 then
           let a = plain seed in
           [ a; spanned seed ]
         else
           let b = spanned seed in
           [ b; plain seed ]
       in
       count_elections lad pair)
    seeds;
  publish lad "trace.overhead_frac" "ratio" ((!traced /. !untraced) -. 1.)

(* Observation hooks: each of metrics, causal and the oracle switched on
   alone against hooks off, interleaved per seed.  Hooks are pure
   observation, so every variant must execute the same events. *)
let observe lad ~root cfg ~seeds =
  let variants = [| "off"; "metrics"; "causal"; "check" |] in
  let wall = Array.make 4 0. and alloc = Array.make 4 0. in
  let events = ref 0 and critpath = ref [] in
  rung ~parent:root "observe" (fun () ->
      List.iter
        (fun seed ->
           let counts =
             Array.mapi
               (fun v _ ->
                  let metrics =
                    if v = 1 then Some (Abe_sim.Metrics.create ()) else None
                  and causal =
                    if v = 2 then Some (Abe_sim.Causal.create ()) else None
                  in
                  Gc.minor ();
                  let a0 = Gc.allocated_bytes () in
                  let t0 = now () in
                  let o =
                    Runner.run ?metrics ?causal ~check:(v = 3) ~seed cfg
                  in
                  let t1 = now () in
                  wall.(v) <- wall.(v) +. (t1 -. t0);
                  alloc.(v) <- alloc.(v) +. (Gc.allocated_bytes () -. a0);
                  (match causal with
                   | Some c ->
                     let t2 = now () in
                     let path = Abe_sim.Critpath.analyze c in
                     critpath := (now () -. t2) :: !critpath;
                     check lad "critical path found" (Option.is_some path)
                   | None -> ());
                  lad.attempted <- lad.attempted + 1;
                  check lad
                    (Printf.sprintf "%s election seed %d" variants.(v) seed)
                    (o.Runner.elected && o.Runner.leader_count = 1
                     && o.Runner.violations = []);
                  (o.Runner.executed_events, o.Runner.messages, o.Runner.ticks))
               variants
           in
           Array.iter
             (fun c ->
                check lad "hooks leave the execution unchanged"
                  (c = counts.(0)))
             counts;
           let e, _, _ = counts.(0) in
           events := !events + e)
        seeds);
  let ev = float_of_int !events in
  let ns v = (wall.(v) -. wall.(0)) *. 1e9 /. ev in
  publish lad "observe.metrics_ns_per_event" "ns" (ns 1);
  publish lad "observe.causal_ns_per_event" "ns" (ns 2);
  publish lad "observe.check_ns_per_event" "ns" (ns 3);
  publish lad "observe.causal_b_per_event" "B" ((alloc.(2) -. alloc.(0)) /. ev);
  publish lad "observe.critpath_ms" "ms" (1000. *. median !critpath)

(* Real-backend layers: the wire codec and hold queue on real-ring's frame
   mix and depth, then real elections with a telemetry Collector off and
   on, interleaved per seed. *)
let substrate lad ~root ~seeds =
  let encode_ns =
    rung ~parent:root "wire.encode" (fun () ->
        median (List.init 3 (fun _ -> wire_encode ~reps:300)))
  in
  let decode_ns, exact =
    rung ~parent:root "wire.decode" (fun () ->
        let r = List.init 3 (fun _ -> wire_decode ~reps:300) in
        (median (List.map fst r), List.for_all snd r))
  in
  lad.attempted <- lad.attempted + 1;
  check lad "wire frames round-trip exactly" exact;
  let holdq_ns, ordered =
    rung ~parent:root "holdq" (fun () ->
        let r =
          List.init 3 (fun _ -> holdq_ops ~depth:real_n ~ops:1_000_000)
        in
        (median (List.map fst r), List.for_all snd r))
  in
  lad.attempted <- lad.attempted + 1;
  check lad "holdq releases in due order" ordered;
  let cfg = real_config () in
  let fds_before = Abe_substrate.Cluster.open_fd_count () in
  let off, on =
    rung ~parent:root "real" (fun () ->
        List.split
          (List.mapi
             (fun i seed ->
                let plain () = real_election cfg ~seed in
                let collected () =
                  real_election
                    ~telemetry:
                      (Abe_substrate.Telemetry.Collector.create ~n:real_n)
                    cfg ~seed
                in
                if i land 1 = 0 then
                  let a = plain () in
                  (a, collected ())
                else
                  let b = collected () in
                  (plain (), b))
             seeds))
  in
  lad.attempted <- lad.attempted + 1;
  check lad "open file descriptors unchanged"
    (fds_before = Abe_substrate.Cluster.open_fd_count ());
  count_elections lad off;
  count_elections lad on;
  let fid =
    List.fold_left
      (fun acc s -> Abe_substrate.Telemetry.Fidelity.merge acc s.fidelity)
      Abe_substrate.Telemetry.Fidelity.empty off
  in
  let excess_units =
    Array.fold_left
      (fun acc l ->
         acc
         +. l.Abe_substrate.Telemetry.Fidelity.measured_sum
         -. l.Abe_substrate.Telemetry.Fidelity.target_sum)
      0. fid
    /. float_of_int (Abe_substrate.Telemetry.Fidelity.deliveries fid)
  in
  let wall_per_abe xs =
    sum_f (fun s -> s.wall) xs /. sum_f (fun s -> s.abe_seconds) xs
  in
  publish lad "wire.encode_ns_per_frame" "ns" encode_ns;
  publish lad "wire.decode_ns_per_frame" "ns" decode_ns;
  publish lad "holdq.ns_per_op" "ns" holdq_ns;
  publish lad "real.excess_ms_mean" "ms" (excess_units *. real_scale *. 1000.);
  publish lad "real.frames_per_election" "count"
    (float_of_int (sum_i (fun s -> s.messages + s.events - s.ticks) off)
     /. float_of_int (List.length off));
  publish lad "telemetry.overhead_frac" "ratio"
    ((wall_per_abe on /. wall_per_abe off) -. 1.)

let per_layer w ~base ~k =
  let lad = { attempted = 0; failed = 0; out = [] } in
  let root = 0 in
  let cfg = sim_config_of w in
  let n = cfg.Runner.n in
  let delta = cfg.Runner.params.Params.delta in
  let list = seeds ~base ~k in
  let first m = List.filteri (fun i _ -> i < m) list in
  traced_pass lad w ~root ~seeds:(first 40);
  (* Runner, hooks off, on the head of the workload's seed list: its
     per-election counts are exact and repeat for a seed base. *)
  let runner_samples =
    rung ~parent:root "runner" (fun () ->
        List.map
          (fun seed -> sim_election { config = cfg; observed = false } ~seed)
          (first 100))
  in
  count_elections lad runner_samples;
  let events, messages, ticks = totals runner_samples in
  let per_election x =
    float_of_int x /. float_of_int (List.length runner_samples)
  in
  let runner_ns =
    sum_f (fun s -> s.run_wall) runner_samples *. 1e9 /. float_of_int events
  in
  let depth =
    int_of_float
      (median (List.map (fun s -> float_of_int s.depth) runner_samples))
  in
  let measure_lower () =
    let eng_ns, eng_b =
      rung ~parent:root "engine" (fun () ->
          median_pair 3 (fun () -> engine_rung ~depth ~events:2_000_000))
    in
    let tick_ns, ev_per_tick =
      rung ~parent:root "network.tick" (fun () ->
          median_pair 3 (fun () ->
              network_ticks ~n ~delta ~events:2_000_000))
    in
    (eng_ns, eng_b, tick_ns, ev_per_tick)
  in
  let msg_ns, ev_per_msg =
    rung ~parent:root "network.msg" (fun () ->
        median_pair 3 (fun () -> network_token ~n ~delta ~events:1_000_000))
  in
  (* The null network's cost for the runner's own mix of tick and message
     events: the part of a runner event the protocol layer does not add. *)
  let network_ns tick_ns ev_per_tick =
    let t = float_of_int ticks *. ev_per_tick
    and m = float_of_int messages *. ev_per_msg in
    ((t *. tick_ns) +. (m *. msg_ns)) /. (t +. m)
  in
  let ordered (eng_ns, _, tick_ns, ev_per_tick) =
    eng_ns <= tick_ns && network_ns tick_ns ev_per_tick <= runner_ns
  in
  (* Ladder self-check: rungs on one n must order engine <= network <=
     runner.  A host hiccup can invert two rungs, so re-measure before
     flagging. *)
  let rec settle tries =
    let lower = measure_lower () in
    if ordered lower || tries = 0 then lower else settle (tries - 1)
  in
  let ((eng_ns, eng_b, tick_ns, ev_per_tick) as lower) = settle 2 in
  let broken =
    (if ordered lower then 0 else 1) + if eng_b = 0. then 0 else 1
  in
  if broken > 0 then
    Printf.eprintf
      "ladder: broken rung (engine %.1f ns, %.3f B; network %.1f ns; runner \
       %.1f ns per event)\n%!"
      eng_ns eng_b (network_ns tick_ns ev_per_tick) runner_ns;
  let create_ms, create_b =
    rung ~parent:root "network.create" (fun () ->
        let reps = max 5 (min 200 (200_000 / n)) in
        median_pair reps (fun () -> network_create ~n ~delta))
  in
  publish lad "engine.ns_per_event" "ns" eng_ns;
  publish lad "engine.alloc_b_per_event" "B" eng_b;
  publish lad "network.tick_ns_per_event" "ns" tick_ns;
  publish lad "network.msg_ns_per_event" "ns" msg_ns;
  publish lad "network.create_ms" "ms" create_ms;
  publish lad "network.create_b_per_node" "B" create_b;
  publish lad "runner.ns_per_event" "ns" runner_ns;
  publish lad "runner.self_ns_per_event" "ns"
    (Float.max 0. (runner_ns -. network_ns tick_ns ev_per_tick));
  publish lad "runner.events_per_election" "count" (per_election events);
  publish lad "runner.messages_per_election" "count" (per_election messages);
  publish lad "runner.ticks_per_election" "count" (per_election ticks);
  publish lad "ladder.broken_rungs" "count" (float_of_int broken);
  observe lad ~root cfg ~seeds:(first 20);
  substrate lad ~root ~seeds:(seeds ~base ~k:40);
  lad

(* Pinned totals for seed bases 0..[last].  Hooks never change the
   execution, so pins are made with them off. *)
let pin_totals w ~k ~last =
  match w.backend with
  | Real _ -> failwith "real-ring has no pins: its trajectory follows OS timing"
  | Sim sim ->
    for base = 0 to last do
      let samples =
        List.map
          (fun seed -> sim_election { sim with observed = false } ~seed)
          (seeds ~base ~k)
      in
      if List.exists (fun s -> not s.ok) samples then
        failwith "election failed";
      let e, m, t = totals samples in
      Printf.printf "%s %d %d %d %d %d\n%!" w.name base k e m t
    done

let () =
  let workload_name = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and elections = ref 0 and pins_path = ref ""
  and print_pins = ref 0 and trace_out = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload_name, " workload name");
      ("--seed", Arg.Set_int seed, " seed base (default 1)");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace,
       " 0: end-to-end metrics; 1: per-layer ladder");
      ("--elections", Arg.Set_int elections,
       " length of the seed list (default: the workload's)");
      ("--pins", Arg.Set_string pins_path, " pinned totals file");
      ("--trace-out", Arg.Set_string trace_out,
       " where the traced run writes its spans");
      ("--print-pins", Arg.Set_int print_pins,
       " print pinned totals for seed bases 0..N and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match workload !workload_name ~seconds:!seconds with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (one of %s)\n" !workload_name
        (String.concat ", " workload_names);
      exit 2
  in
  let k = if !elections > 0 then !elections else w.elections in
  if !print_pins > 0 then begin
    pin_totals w ~k ~last:!print_pins;
    exit 0
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace must be 0 or 1";
    exit 2
  end;
  let pins = if !pins_path = "" then [] else load_pins !pins_path in
  let attempted, failed, metrics =
    if !trace = 0 then end_to_end w ~base:!seed ~k ~seconds:!seconds ~pins
    else begin
      let lad = per_layer w ~base:!seed ~k in
      if !trace_out <> "" then write_spans !trace_out;
      (lad.attempted, lad.failed, List.rev lad.out)
    end
  in
  let bad = non_finite metrics in
  List.iter (fun m -> Printf.eprintf "metric %s is not finite\n" m.mname) bad;
  let correct = failed = 0 && bad = [] in
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1
