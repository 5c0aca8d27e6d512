(* Engine-core benchmark: the numbers behind BENCH_engine.json.

   Three measurements, matching the ROADMAP scale targets:
   - raw engine throughput: self-rescheduling event chains on a bare
     engine (no network, no protocol), the ceiling of the fast loop;
   - allocation rate on that loop via [Gc.allocated_bytes] — the
     flat-core refactor's contract is ~0 bytes per event;
   - election wall-time at ring sizes up to n = 10^6.  Huge rings run in
     a sub-tick delay regime (δ = 0.1/n, a0 = 1/n): link transit is far
     below the tick period, so a token laps the ring between tick rounds
     and the election resolves in a handful of rounds — total events stay
     O(n · rounds) instead of the O(n · elected_at) of the default
     regime, which would be ~10^12 events at this scale.  Ring-wide mass
     sampling and the phase log (O(n^2) bookkeeping) are opted out. *)

type raw = {
  raw_events : int;
  raw_chains : int;
  raw_seconds : float;
  raw_rate : float;          (* events per second *)
  raw_alloc_per_event : float;  (* bytes *)
}

(* [chains] independent self-rescheduling closures, each rescheduling
   itself with a constant delay until [events] events have executed — so
   [chains] is also the steady-state queue depth.  The per-chain closure
   is allocated once, so steady-state scheduling cost is exactly one arena
   slot reuse + one heap push per event.  Takes the best of [reps]
   repetitions: wall-clock on a shared host is noisy and the best run is
   the closest estimate of what the loop actually costs. *)
let raw_engine ~events ~chains ~reps =
  let open Abe_sim in
  let one () =
    let e = Engine.create ~limit_events:events () in
    for _ = 1 to chains do
      let rec act () = Engine.schedule e ~delay:1.0 act in
      Engine.schedule e ~delay:1.0 act
    done;
    Gc.full_major ();
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let (_ : Engine.outcome) = Engine.run e in
    let dt = Unix.gettimeofday () -. t0 in
    let allocated = Gc.allocated_bytes () -. a0 in
    let executed = Engine.executed_events e in
    { raw_events = executed;
      raw_chains = chains;
      raw_seconds = dt;
      raw_rate = float_of_int executed /. dt;
      raw_alloc_per_event = allocated /. float_of_int executed }
  in
  let best = ref (one ()) in
  for _ = 2 to reps do
    let r = one () in
    if r.raw_rate > !best.raw_rate then best := r
  done;
  !best

type construction = {
  co_n : int;
  co_seconds : float;
  co_alloc_per_node : float;  (* bytes *)
}

(* Network construction in isolation: per-node RNG splits, clocks, context
   closures, and first-tick scheduling — everything [create] does before
   the first event runs.  This is the piece the batched-construction work
   targets; on a 10^6-node ring it used to rival the election itself. *)
module Null_protocol = struct
  type state = unit
  type message = unit

  let pp_state ppf () = Fmt.string ppf "()"
  let pp_message ppf () = Fmt.string ppf "()"
end

module Null_net = Abe_net.Network.Make (Null_protocol)

let construction ~n ~reps =
  let topology = Abe_net.Topology.ring n in
  let delay =
    Abe_net.Delay_model.of_dist (Abe_prob.Dist.exponential ~mean:1.)
  in
  let config = Null_net.default_config ~topology ~delay in
  let handlers =
    { Null_net.init = (fun _ -> ());
      on_message = (fun _ state () -> state);
      on_tick = (fun _ state -> state) }
  in
  let one () =
    Gc.full_major ();
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let net = Null_net.create ~seed:1 config handlers in
    let dt = Unix.gettimeofday () -. t0 in
    let allocated = Gc.allocated_bytes () -. a0 in
    ignore (Sys.opaque_identity net);
    (dt, allocated)
  in
  let best = ref (one ()) in
  for _ = 2 to reps do
    let r = one () in
    if fst r < fst !best then best := r
  done;
  let seconds, allocated = !best in
  { co_n = n;
    co_seconds = seconds;
    co_alloc_per_node = allocated /. float_of_int n }

type election = {
  el_n : int;
  el_seed : int;
  el_elected : bool;
  el_elected_at : float;
  el_events : int;
  el_messages : int;
  el_ticks : int;
  el_seconds : float;
  el_rate : float;  (* engine events per second, protocol included *)
}

let election ~n ~seed =
  let inv_n = 1. /. float_of_int n in
  let delta = 0.1 *. inv_n in
  let params =
    Abe_core.Params.make ~delta ~gamma:0. ~clock:Abe_net.Clock.perfect
  in
  let config =
    Abe_core.Runner.config ~n ~a0:inv_n ~params
      ~limit_events:2_000_000_000 ~record_mass:false ~record_phases:false ()
  in
  let t0 = Unix.gettimeofday () in
  let outcome = Abe_core.Runner.run ~seed config in
  let dt = Unix.gettimeofday () -. t0 in
  { el_n = n;
    el_seed = seed;
    el_elected = outcome.Abe_core.Runner.elected;
    el_elected_at = outcome.Abe_core.Runner.elected_at;
    el_events = outcome.Abe_core.Runner.executed_events;
    el_messages = outcome.Abe_core.Runner.messages;
    el_ticks = outcome.Abe_core.Runner.ticks;
    el_seconds = dt;
    el_rate = float_of_int outcome.Abe_core.Runner.executed_events /. dt }

let write_json ~quick ~raw ~sweep ~construction:co ~notes ~elections path =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"abe-engine-bench/v1\",\n\
    \  \"mode\": %S,\n\
    \  \"raw_engine\": {\n\
    \    \"chains\": %d,\n\
    \    \"events\": %d,\n\
    \    \"seconds\": %.6f,\n\
    \    \"events_per_sec\": %.1f,\n\
    \    \"alloc_bytes_per_event\": %.4f\n\
    \  },\n\
    \  \"raw_sweep\": [\n"
    (if quick then "quick" else "full")
    raw.raw_chains raw.raw_events raw.raw_seconds raw.raw_rate
    raw.raw_alloc_per_event;
  List.iteri
    (fun i r ->
       Printf.fprintf oc
         "    { \"chains\": %d, \"events_per_sec\": %.1f, \
          \"alloc_bytes_per_event\": %.4f }%s\n"
         r.raw_chains r.raw_rate r.raw_alloc_per_event
         (if i = List.length sweep - 1 then "" else ","))
    sweep;
  Printf.fprintf oc
    "  ],\n\
    \  \"construction\": {\n\
    \    \"n\": %d,\n\
    \    \"seconds\": %.6f,\n\
    \    \"alloc_bytes_per_node\": %.1f,\n\
    \    \"notes\": %S\n\
    \  },\n"
    co.co_n co.co_seconds co.co_alloc_per_node notes;
  Printf.fprintf oc "  \"elections\": [\n";
  List.iteri
    (fun i el ->
       Printf.fprintf oc
         "    { \"n\": %d, \"seed\": %d, \"elected\": %b, \
          \"elected_at\": %.6f, \"events\": %d, \"messages\": %d, \
          \"ticks\": %d, \"seconds\": %.6f, \"events_per_sec\": %.1f }%s\n"
         el.el_n el.el_seed el.el_elected el.el_elected_at el.el_events
         el.el_messages el.el_ticks el.el_seconds el.el_rate
         (if i = List.length elections - 1 then "" else ","))
    elections;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let run ~quick () =
  Fmt.pr "@.== Engine core bench (%s) ==@." (if quick then "quick" else "full");
  let events, reps = if quick then (5_000_000, 5) else (10_000_000, 9) in
  let depths = if quick then [ 64 ] else [ 16; 64; 256 ] in
  let sweep =
    List.map
      (fun chains ->
         let r = raw_engine ~events ~chains ~reps in
         Fmt.pr
           "raw engine: %d events, %d chains: %.3f s, %.3e events/s, %.2f \
            B/event@."
           r.raw_events r.raw_chains r.raw_seconds r.raw_rate
           r.raw_alloc_per_event;
         r)
      depths
  in
  (* Headline figure: queue depth 64, a mid-size steady state. *)
  let raw =
    match List.filter (fun r -> r.raw_chains = 64) sweep with
    | r :: _ -> r
    | [] -> List.hd sweep
  in
  let co_n = if quick then 100_000 else 1_000_000 in
  let co = construction ~n:co_n ~reps:(if quick then 3 else 5) in
  Fmt.pr "construction n=%d: %.3f s, %.1f B/node@." co.co_n co.co_seconds
    co.co_alloc_per_node;
  let notes =
    "batched-construction pass (allocation-free stream seeding, loss \
     streams skipped when loss is off, scheduler footprints gated, shared \
     now/stop closures, per-model delay validation): ring construction at \
     n=10^6 measured 1.257 s / 2680 B/node before the pass on this host; \
     the section above is the post-pass re-measurement (~1.0 s / 2137 \
     B/node at the time of the change)"
  in
  let sizes = if quick then [ 10_000 ] else [ 10_000; 100_000; 1_000_000 ] in
  let elections =
    List.map
      (fun n ->
         let el = election ~n ~seed:1 in
         Fmt.pr
           "election n=%d: elected=%b at t=%.4f, %d events (%d msgs, %d \
            ticks) in %.3f s (%.3e events/s)@."
           el.el_n el.el_elected el.el_elected_at el.el_events el.el_messages
           el.el_ticks el.el_seconds el.el_rate;
         el)
      sizes
  in
  let path = Bench_out.artifact "BENCH_engine.json" in
  write_json ~quick ~raw ~sweep ~construction:co ~notes ~elections path;
  Fmt.pr "wrote %s@." path
