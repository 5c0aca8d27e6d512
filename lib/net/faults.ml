open Abe_prob

type t = {
  label : string;
  loss_schedule : (float -> float) option;
  episodes : Delay_model.episode array;
  crashes : (int * float) list;
  link_downs : (int * float * float) list;
  revivals : (int * float) list;
  truncated : int;
}

let none =
  { label = "none";
    loss_schedule = None;
    episodes = [||];
    crashes = [];
    link_downs = [];
    revivals = [];
    truncated = 0 }

(* Scenario timelines are generated eagerly, so their length must be
   bounded.  The bound used to be a flat 4096-episode constant, which a
   long-horizon high-rate churn run would hit silently — everything past
   the cap just never happened, and the run quietly simulated a calmer
   network than requested.  The cap is now derived from the requested
   (horizon, rate): four times the expected arrival count plus slack, so
   it cannot bind on any plausible draw of an honest request.  When it
   does bind (the request itself asks for millions of events), the
   overflow is counted in [truncated] — surfaced by [pp] and by the
   "faults/episodes_truncated" metric — never dropped silently.
   [hard_max_episodes] bounds memory and generation work absolutely. *)
let hard_max_episodes = 262_144

let episode_cap ~horizon ~mean_gap =
  let padded = (4. *. (horizon /. mean_gap)) +. 256. in
  if Float.is_finite padded && padded < float_of_int hard_max_episodes then
    int_of_float padded
  else hard_max_episodes

(* Every scenario draws from its own generator, derived from the run seed
   through a salt, so enabling a fault never consumes a draw from — and
   therefore never perturbs — any simulation stream. *)
let scenario_rng ~seed ~salt = Rng.create ~seed:((seed * 1_000_003) + salt)

(* Alternate Exp(mean_gap) quiet periods with Exp(mean_len) episodes over
   [0, horizon); [factor_of] supplies each episode's factor.  Capped by
   arrival count, so generation work is bounded even for absurd rates;
   the unrealised tail is estimated analytically (one arrival per
   mean gap + mean length on average) — drawing it out could cost
   unbounded work at exactly the rates that hit the cap. *)
let episode_train rng ~mean_gap ~mean_len ~horizon ~factor_of =
  let cap = episode_cap ~horizon ~mean_gap in
  let eps = ref [] in
  let arrivals = ref 0 in
  let truncated = ref 0 in
  let t = ref (Rng.exponential rng ~mean:mean_gap) in
  while !t < horizon && !truncated = 0 do
    incr arrivals;
    if !arrivals > cap then
      truncated := 1 + int_of_float ((horizon -. !t) /. (mean_gap +. mean_len))
    else begin
      let len = Rng.exponential rng ~mean:mean_len in
      let stop = Float.min horizon (!t +. len) in
      if stop > !t then
        eps :=
          { Delay_model.e_start = !t; e_stop = stop; factor = factor_of rng }
          :: !eps;
      t := stop +. Rng.exponential rng ~mean:mean_gap
    end
  done;
  (Array.of_list (List.rev !eps), !truncated)

let check_horizon horizon =
  if not (Float.is_finite horizon && horizon > 0.) then
    invalid_arg "Faults: horizon must be positive and finite"

let bursty_loss ~seed ~delta ~horizon =
  check_horizon horizon;
  let rng = scenario_rng ~seed ~salt:1 in
  let bursts, truncated =
    episode_train rng ~mean_gap:(10. *. delta) ~mean_len:(5. *. delta)
      ~horizon ~factor_of:(fun _ -> 0.4)
    (* the episode [factor] carries the loss probability during the burst *)
  in
  let schedule t =
    let p = ref 0. in
    Array.iter
      (fun ep ->
         if ep.Delay_model.e_start <= t && t < ep.Delay_model.e_stop then
           p := ep.Delay_model.factor)
      bursts;
    !p
  in
  { none with label = "bursty-loss"; loss_schedule = Some schedule; truncated }

let delay_spikes ~seed ~delta ~horizon =
  check_horizon horizon;
  let rng = scenario_rng ~seed ~salt:2 in
  let episodes, truncated =
    episode_train rng ~mean_gap:(25. *. delta) ~mean_len:(3. *. delta)
      ~horizon
      ~factor_of:(fun rng -> 15. +. Rng.float rng 20.)
  in
  { none with label = "delay-spike"; episodes; truncated }

let heavy_tail ~seed ~delta ~horizon =
  check_horizon horizon;
  let rng = scenario_rng ~seed ~salt:3 in
  let episodes, truncated =
    episode_train rng ~mean_gap:(15. *. delta) ~mean_len:(4. *. delta)
      ~horizon
      ~factor_of:(fun rng ->
        (* Pareto-ish factor: 1 / U^0.8 has infinite variance, so a few
           episodes are dramatically slower than the rest. *)
        1. +. (1. /. Float.pow (Rng.unit_float rng +. 1e-12) 0.8))
  in
  { none with label = "heavy-tail"; episodes; truncated }

let check_time what at =
  if not (Float.is_finite at && at >= 0.) then
    invalid_arg (Printf.sprintf "Faults.%s: time must be non-negative and finite" what)

let crash ~node ~at =
  if node < 0 then invalid_arg "Faults.crash: node must be non-negative";
  check_time "crash" at;
  { none with
    label = Printf.sprintf "crash(%d@%g)" node at;
    crashes = [ (node, at) ] }

let crash_rejoin ~node ~at ~rejoin_at =
  if node < 0 then invalid_arg "Faults.crash_rejoin: node must be non-negative";
  check_time "crash_rejoin" at;
  check_time "crash_rejoin" rejoin_at;
  if not (rejoin_at > at) then
    invalid_arg "Faults.crash_rejoin: rejoin time must come after the crash";
  { none with
    label = Printf.sprintf "rejoin(%d@%g:%g)" node at rejoin_at;
    crashes = [ (node, at) ];
    revivals = [ (node, rejoin_at) ] }

let link_down ~link ~from_ ~until =
  if link < 0 then invalid_arg "Faults.link_down: link must be non-negative";
  check_time "link_down" from_;
  check_time "link_down" until;
  if not (until > from_) then
    invalid_arg "Faults.link_down: episode must have positive length";
  { none with
    label = Printf.sprintf "link-down(%d@%g:%g)" link from_ until;
    link_downs = [ (link, from_, until) ] }

(* The churn generator owns salt 4.  Events arrive with Exp(δ/rate)
   inter-arrival gaps; each event takes down one link (Exp(2δ) outage,
   ~2/3 of events) or crash-and-rejoins one node (Exp(3δ) downtime,
   ~1/3).  Links and nodes currently down are skipped — episodes never
   overlap per entity — so the scenario stays a well-formed timeline at
   any rate. *)
let churn ~seed ~n ~delta ~horizon ~rate =
  if not (Float.is_finite rate && rate >= 0.) then
    invalid_arg "Faults.churn: rate must be non-negative and finite";
  check_horizon horizon;
  let label = Printf.sprintf "churn(%g)" rate in
  if rate = 0. then { none with label }
  else begin
    let n = max n 1 in
    let rng = scenario_rng ~seed ~salt:4 in
    let link_until = Array.make n neg_infinity in
    let node_until = Array.make n neg_infinity in
    let downs = ref [] and crs = ref [] and revs = ref [] in
    let mean_gap = delta /. rate in
    let cap = episode_cap ~horizon ~mean_gap in
    let arrivals = ref 0 in
    let truncated = ref 0 in
    let t = ref (Rng.exponential rng ~mean:mean_gap) in
    while !t < horizon && !truncated = 0 do
      incr arrivals;
      if !arrivals > cap then
        (* The unrealised tail of the timeline is estimated analytically —
           one arrival per mean gap — instead of drawn out: at the rates
           that can hit the cap, generating it would cost unbounded
           work. *)
        truncated := 1 + int_of_float ((horizon -. !t) /. mean_gap)
      else begin
        (if Rng.int rng 3 < 2 then begin
           let l = Rng.int rng n in
           let len = Rng.exponential rng ~mean:(2. *. delta) in
           if link_until.(l) <= !t then begin
             let stop = Float.min horizon (!t +. len) in
             if stop > !t then begin
               downs := (l, !t, stop) :: !downs;
               link_until.(l) <- stop
             end
           end
         end
         else begin
           let v = Rng.int rng n in
           let len = Rng.exponential rng ~mean:(3. *. delta) in
           if node_until.(v) <= !t then begin
             let back = Float.min horizon (!t +. len) in
             if back > !t then begin
               crs := (v, !t) :: !crs;
               revs := (v, back) :: !revs;
               node_until.(v) <- back
             end
           end
         end);
        t := !t +. Rng.exponential rng ~mean:mean_gap
      end
    done;
    { label;
      loss_schedule = None;
      episodes = [||];
      crashes = List.rev !crs;
      link_downs = List.rev !downs;
      revivals = List.rev !revs;
      truncated = !truncated }
  end

let check_probability ~label p t =
  if not (p >= 0. && p <= 1.) then
    invalid_arg
      (Printf.sprintf
         "Faults.compose: loss schedule of %S returned %g (outside [0,1]) \
          at t=%g"
         label p t)

let compose a b =
  let loss_schedule =
    match a.loss_schedule, b.loss_schedule with
    | None, s | s, None -> s
    | Some f, Some g ->
      (* Independent loss sources: survive both, i.e. 1-(1-f)(1-g).  Each
         operand is validated here because two out-of-range probabilities
         can combine into an in-range one — e.g. f = -1 and g = 2 give
         1-(2)(-1) = 3 clamped nowhere — which the network-level sample
         check could never catch. *)
      Some
        (fun t ->
           let pf = f t and pg = g t in
           check_probability ~label:a.label pf t;
           check_probability ~label:b.label pg t;
           1. -. ((1. -. pf) *. (1. -. pg)))
  in
  { label =
      (if a.label = "none" then b.label
       else if b.label = "none" then a.label
       else a.label ^ "+" ^ b.label);
    loss_schedule;
    episodes = Array.append a.episodes b.episodes;
    crashes = a.crashes @ b.crashes;
    link_downs = a.link_downs @ b.link_downs;
    revivals = a.revivals @ b.revivals;
    truncated = a.truncated + b.truncated }

let apply_delay t model =
  if Array.length t.episodes = 0 then model
  else
    Delay_model.modulated model
      ~episodes:(Array.append (Delay_model.episodes model) t.episodes)

(* Parse one '+'-free scenario atom.  Parameterized forms mirror the
   labels the constructors print — [crash(3@2)], [rejoin(3@2:5)],
   [link-down(0@1:4)], [churn(0.2)] — so [of_string] composed with
   [label] is the identity on labels. *)
let atom_of_string ~seed ~n ~delta ~horizon s =
  let scan fmt k = try Some (Scanf.sscanf s fmt k) with _ -> None in
  match s with
  | "none" | "" -> Ok none
  | "bursty-loss" -> Ok (bursty_loss ~seed ~delta ~horizon)
  | "delay-spike" -> Ok (delay_spikes ~seed ~delta ~horizon)
  | "heavy-tail" -> Ok (heavy_tail ~seed ~delta ~horizon)
  | "crash" -> Ok (crash ~node:(n / 2) ~at:(float_of_int (max n 1) *. delta))
  | "rejoin" ->
    let at = float_of_int (max n 1) *. delta in
    Ok (crash_rejoin ~node:(n / 2) ~at ~rejoin_at:(2. *. at))
  | "churn" -> Ok (churn ~seed ~n ~delta ~horizon ~rate:0.1)
  | _ ->
    let parsed =
      match
        scan "crash(%d@%f)%!" (fun node at () -> crash ~node ~at)
      with
      | Some k -> Some k
      | None ->
        match
          scan "rejoin(%d@%f:%f)%!" (fun node at rejoin_at () ->
              crash_rejoin ~node ~at ~rejoin_at)
        with
        | Some k -> Some k
        | None ->
          match
            scan "link-down(%d@%f:%f)%!" (fun link from_ until () ->
                link_down ~link ~from_ ~until)
          with
          | Some k -> Some k
          | None ->
            scan "churn(%f)%!" (fun rate () ->
                churn ~seed ~n ~delta ~horizon ~rate)
    in
    (match parsed with
     | Some k -> (try Ok (k ()) with Invalid_argument msg -> Error (`Msg msg))
     | None ->
       Error
         (`Msg
            (Printf.sprintf
               "unknown fault scenario %S (expected none, bursty-loss, \
                delay-spike, heavy-tail, crash, rejoin, link-down or churn \
                — optionally parameterized like crash(3@2), \
                rejoin(3@2:5), link-down(0@1:4) or churn(0.2), and \
                composed with '+')"
               s)))

let of_string ~seed ~n ~delta s =
  let horizon = 200. *. float_of_int (max n 1) *. delta in
  let parts =
    String.split_on_char '+' (String.lowercase_ascii (String.trim s))
  in
  let rec go acc = function
    | [] -> Ok acc
    | part :: rest ->
      (match atom_of_string ~seed ~n ~delta ~horizon (String.trim part) with
       | Ok f -> go (compose acc f) rest
       | Error _ as e -> e)
  in
  go none parts
