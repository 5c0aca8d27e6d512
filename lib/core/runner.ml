open Abe_prob
open Abe_net

(* A token is the election hop counter plus [traversed], the links it has
   actually crossed: only the hop-soundness check reads the tag, so tagging
   cannot change the execution.  [Announce] is the announce-mode lap. *)
type message =
  | Token of { hop : Election.message; traversed : int }
  | Announce

module Net = Network.Make (struct
    type state = Election.state
    type nonrec message = message

    let pp_state = Election.pp_state

    let pp_message ppf = function
      | Token { hop; _ } -> Election.pp_message ppf hop
      | Announce -> Format.pp_print_string ppf "<announce>"
  end)

(* One pooled ring: a network of the configuration's topology, the
   runner's shadow copy of its node states and, once a checked run has
   used the ring, its monitor; all three are reset when taken. *)
type entry = {
  net : Net.t;
  shadow : Election.state array;
  monitor : Monitor.t option;
}

type pool = {
  link_models : Delay_model.t array;
      (* by link id: the base model under the fault's delay overlay,
         computed once per distinct base model *)
  free : entry list Atomic.t;
      (* networks not in use: a lock-free stack, so each domain running
         this configuration takes a network of its own *)
  passive : Election.state array;
      (* [passive.(d)]: the one passive state with watermark [d]; see
         [on_token] *)
}

type config = {
  n : int;
  a0 : float;
  params : Params.t;
  delay : Delay_model.t;
  link_delays : Delay_model.t array option;
  proc_delay : Dist.t option;
  limit_time : float;
  limit_events : int;
  fault : Faults.t;
  record_mass : bool;
  record_phases : bool;
  topology : Topology.t;
  activation : float array;
  pool : pool;
}

(* [activation.(d)] for d = 1..n, bit for bit
   [Election.activation_probability]: the tick rule's only float work,
   done once per configuration instead of once per tick.  A watermark
   never exceeds n, the largest hop count [Election.receive] accepts. *)
let activation_table ~n ~a0 =
  Array.init (n + 1) (fun d ->
      if d = 0 then 0. else Election.activation_probability ~a0 ~d)

(* [Faults.apply_delay] builds a new modulated model on every call, so it
   runs once per physically distinct base model; links that share a base
   model share its overlay, and [Links] validates each shared model
   once. *)
let pool ~n ~delay ~link_delays ~fault =
  let overlays = ref [] in
  let overlay base =
    match List.assq_opt base !overlays with
    | Some model -> model
    | None ->
      let model = Faults.apply_delay fault base in
      overlays := (base, model) :: !overlays;
      model
  in
  { link_models =
      Array.init n (fun i ->
          overlay
            (match link_delays with
             | None -> delay
             (* On [Topology.ring n] the link out of node i has id i. *)
             | Some models -> models.(i)));
    free = Atomic.make [];
    passive =
      Array.init (n + 1) (fun d -> { Election.phase = Election.Passive; d }) }

let check_budgets ~limit_time ~limit_events =
  if not (limit_time > 0.) then
    invalid_arg "Runner.config: limit_time must be positive";
  if limit_events <= 0 then
    invalid_arg "Runner.config: limit_events must be positive"

let config ?(a0 = 0.3) ?(params = Params.default) ?delay ?link_delays
    ?proc_delay ?(limit_time = 1e7) ?(limit_events = 200_000_000)
    ?(fault = Faults.none) ?(record_mass = true)
    ?(record_phases = true) ~n () =
  if n < 2 then invalid_arg "Runner.config: n must be >= 2";
  if not (a0 > 0. && a0 < 1.) then invalid_arg "Runner.config: a0 outside (0,1)";
  check_budgets ~limit_time ~limit_events;
  let delay =
    match delay with
    | Some d -> d
    | None -> Delay_model.abe_exponential ~delta:params.Params.delta
  in
  let proc_delay = Option.join proc_delay in
  let check_admissible model =
    if not (Params.admits_delay params model) then
      invalid_arg
        (Fmt.str
           "Runner.config: delay model %a has expected delay %g > delta %g — \
            not an ABE network for these parameters"
           Delay_model.pp model
           (Delay_model.expected_delay model)
           params.Params.delta)
  in
  check_admissible delay;
  Option.iter
    (fun models ->
       if Array.length models <> n then
         invalid_arg "Runner.config: link_delays must have one entry per node";
       Array.iter check_admissible models)
    link_delays;
  if not (Params.admits_processing params proc_delay) then
    invalid_arg "Runner.config: processing-time mean exceeds gamma";
  (* The ring has nodes and links 0 .. n-1 (link i leaves node i). *)
  let check_index what i =
    if i < 0 || i >= n then
      invalid_arg
        (Printf.sprintf
           "Runner.config: fault %s names %s %d, but the ring has %ss 0..%d"
           fault.Faults.label what i what (n - 1))
  in
  List.iter (fun (node, _) -> check_index "node" node) fault.Faults.crashes;
  List.iter (fun (node, _) -> check_index "node" node) fault.Faults.revivals;
  List.iter (fun (link, _, _) -> check_index "link" link)
    fault.Faults.link_downs;
  (* Admissibility is checked on the base models only: a fault scenario
     deliberately perturbs the network outside its advertised bounds —
     that is the point of injecting it. *)
  { n; a0; params; delay; link_delays; proc_delay; limit_time; limit_events;
    fault; record_mass; record_phases;
    topology = Topology.ring n;
    activation = activation_table ~n ~a0;
    pool = pool ~n ~delay ~link_delays ~fault }

(* A copy starts an empty pool of its own: its networks live and die with
   it. *)
let with_link_delays config models =
  if Array.length models <> config.n then
    invalid_arg "Runner.with_link_delays: need one entry per node";
  { config with
    link_delays = Some models;
    pool =
      pool ~n:config.n ~delay:config.delay ~link_delays:(Some models)
        ~fault:config.fault }

let with_limit_events config limit_events =
  check_budgets ~limit_time:config.limit_time ~limit_events;
  { config with
    limit_events;
    pool = { config.pool with free = Atomic.make [] } }

let naive config =
  { config with
    activation = Array.make (config.n + 1) config.a0;
    pool = { config.pool with free = Atomic.make [] } }

let rec take pool =
  match Atomic.get pool.free with
  | [] -> None
  | entry :: rest as free ->
    if Atomic.compare_and_set pool.free free rest then Some entry
    else take pool

let rec give pool entry =
  let free = Atomic.get pool.free in
  if not (Atomic.compare_and_set pool.free free (entry :: free)) then
    give pool entry

type outcome = {
  elected : bool;
  leader : int option;
  leader_count : int;
  elected_at : float;
  messages : int;
  activations : int;
  knockouts : int;
  purges : int;
  ticks : int;
  activation_times : float array;
  mass_samples : (float * int * int) array;
  phase_transitions : (float * int * Election.phase) array;
  executed_events : int;
  max_queue_depth : int;
  wall_time : float;
  engine_outcome : Abe_sim.Engine.outcome;
  violations : Abe_sim.Oracle.violation list;
  stalled : string option;
}

type announced = {
  election : outcome;
  announce_messages : int;
  all_informed : bool;
  informed_at : float;
}

(* The paper's forwarding rule and two seeded mutations the oracle and the
   liveness checker must catch (see runner.mli). *)
type forwarding = Paper | Stale_max | Drop_token

(* ---------------------------------------------------------------- step *)

type mark = Activate | Knockout | Purge | Elected

let mark_label = function
  | Activate -> "activate"
  | Knockout -> "knockout"
  | Purge -> "purge"
  | Elected -> "elected"

(* The backend's half of a handler, fixed once per run, so the per-event
   step allocates nothing of its own. *)
type 'ctx step = {
  n : int;
  activation : float array;  (* by watermark d; see [activation_table] *)
  passive : Election.state array;  (* by watermark d; see [pool] *)
  forwarding : forwarding;
  moved : 'ctx -> Election.state -> Election.state -> unit;
  mark : 'ctx -> mark -> traversed:int -> unit;
  send : 'ctx -> hop:int -> traversed:int -> unit;
  unsound : 'ctx -> hop:int -> traversed:int -> unit;
}

let step (config : config) ~send ~mark ~unsound =
  { n = config.n; activation = config.activation;
    passive = config.pool.passive; forwarding = Paper;
    moved = (fun _ _ _ -> ()); mark; send; unsound }

(* [Election.tick_decision] with the coin's probability looked up, not
   computed: the same draw on the same stream, and no allocation unless
   the node activates. *)
let on_tick w ctx ~rng st =
  match st.Election.phase with
  | Election.Idle when Rng.bernoulli_at rng w.activation st.Election.d ->
    let st' = { st with Election.phase = Election.Active } in
    w.moved ctx st st';
    w.mark ctx Activate ~traversed:0;
    (* A fresh token starts with hop counter 1, and will have traversed
       exactly one link when it first arrives. *)
    w.send ctx ~hop:1 ~traversed:1;
    st'
  | Election.Idle | Election.Active | Election.Passive | Election.Leader -> st

let on_token w ctx st ~hop ~traversed =
  if hop <> traversed then w.unsound ctx ~hop ~traversed;
  let st', reaction = Election.receive ~n:w.n st hop in
  (* Knockouts and passive forwards are nearly every transition.  Sharing
     one record per watermark keeps the ring's state arrays, which live
     as long as their pooled network, from pointing into the minor heap:
     otherwise every such record would be promoted, only to die at the
     next reset. *)
  let st' =
    match st'.Election.phase with
    | Election.Passive -> w.passive.(st'.Election.d)
    | Election.Idle | Election.Active | Election.Leader -> st'
  in
  w.moved ctx st st';
  (match reaction with
   | Election.Forward hop' ->
     if st.Election.phase = Election.Idle then w.mark ctx Knockout ~traversed;
     (match w.forwarding with
      | Paper -> w.send ctx ~hop:hop' ~traversed:(traversed + 1)
      | Stale_max ->
        (* Seeded bug: a stale watermark inflates the counter. *)
        w.send ctx
          ~hop:(min w.n (st'.Election.d + 1))
          ~traversed:(traversed + 1)
      | Drop_token ->
        (* Seeded liveness bug: the token dies after its second link. *)
        if traversed < 2 then w.send ctx ~hop:hop' ~traversed:(traversed + 1))
   | Election.Purge -> w.mark ctx Purge ~traversed
   | Election.Elected -> w.mark ctx Elected ~traversed);
  st'

type counters = {
  mutable activations : int;
  mutable knockouts : int;
  mutable purges : int;
  mutable elected_at : float;
  mutable leader : int option;
  mutable elections : int;
  mutable activation_times : float list;
  mutable mass_samples : (float * int * int) list;
  mutable phase_transitions : (float * int * Election.phase) list;
  mutable announce_messages : int;
  mutable informed_at : float;
}

(* Pre-resolved metric handles for the election layer (see Network for
   the net/engine ones). *)
type instruments = {
  m_activations : Abe_sim.Metrics.counter;
  m_knockouts : Abe_sim.Metrics.counter;
  m_purges : Abe_sim.Metrics.counter;
  m_token_hops : Abe_sim.Metrics.histogram;
  m_activation_time : Abe_sim.Metrics.histogram;
  m_live_tokens : Abe_sim.Metrics.histogram;
  m_elected_at : Abe_sim.Metrics.gauge;
  m_hops_at_election : Abe_sim.Metrics.gauge;
}

let instruments_of m =
  let open Abe_sim.Metrics in
  { m_activations = counter m "election/activations";
    m_knockouts = counter m "election/knockouts";
    m_purges = counter m "election/purges";
    m_token_hops = histogram m "election/token_hops";
    m_activation_time = histogram m "election/activation_time";
    m_live_tokens = histogram m "election/live_tokens";
    m_elected_at = gauge m "election/elected_at";
    m_hops_at_election = gauge m "election/hops_at_election" }

(* 62-bit avalanche mixer (a splitmix64-style finalizer truncated to the
   native int width): each absorbed value is diffused through two
   xor-shift-multiply rounds, so structurally close states — which the old
   multiply-add rolled into colliding low bits — land on digests differing
   in about half their bits.  Exploration keys schedule pruning on these
   digests, so collision resistance directly bounds wrongly-merged
   states. *)
let mix h v =
  let z = (h lxor v) * 0x9E3779B97F4A7C1 land max_int in
  let z = (z lxor (z lsr 29)) * 0x2545F4914F6CDD1D land max_int in
  z lxor (z lsr 32)

(* One wiring for every simulated variant: the naive ablation differs
   from the paper's algorithm only in its configuration's activation
   table ([naive]), and announce mode only in what [Elected] does — it
   starts the announcement lap instead of stopping, and the lap's return
   to the leader is the run's goal. *)
let run_with ~announce ?trace ?metrics ?scheduler ?causal ?(check = false)
    ?(forwarding = Paper) ?(wall_deadline = infinity) ~seed config =
  let counters =
    { activations = 0;
      knockouts = 0;
      purges = 0;
      elected_at = nan;
      leader = None;
      elections = 0;
      activation_times = [];
      mass_samples = [];
      phase_transitions = [];
      announce_messages = 0;
      informed_at = nan }
  in
  let oracle = if check then Some (Abe_sim.Oracle.create ()) else None in
  let fault = config.fault in
  let net_config =
    { (Network.default_config ~topology:config.topology ~delay:config.delay)
      with
      proc_delay = config.proc_delay;
      clock_spec = config.params.Params.clock;
      crash_times = fault.Faults.crashes;
      revive_times = fault.Faults.revivals;
      link_downs = fault.Faults.link_downs;
      loss_schedule = fault.Faults.loss_schedule;
      delay_of_link =
        (fun link -> config.pool.link_models.(link.Topology.id)) }
  in
  (* A fault with rejoins or link outages rewrites the topology over time:
     the monitor's invariants switch to the Dynamic class (accounting only
     — the ring is expected to break and heal).  Everything else, crashes
     included, stays in the Static class. *)
  let dynamic =
    if fault.Faults.revivals = [] && fault.Faults.link_downs = [] then
      Monitor.Static
    else Monitor.Dynamic
  in
  (* Under a reordering scheduler the monitor's clock-rate checks are
     disabled: they measure real-time gaps between tick *executions*, and a
     legal reordering shifts executions within the commutation window,
     which would trip the (exact, float-rounding-only) drift tolerance
     spuriously.  Logical invariants — conservation, FIFO, hop soundness,
     unique leader — are exactly what schedule exploration is for and stay
     on. *)
  let instruments = Option.map instruments_of metrics in
  (* A fault scenario whose generation cap bound is simulating a calmer
     network than requested; surface the drop count where dashboards can
     see it. *)
  (match metrics with
   | Some registry when fault.Faults.truncated > 0 ->
     Abe_sim.Metrics.incr ~by:fault.Faults.truncated
       (Abe_sim.Metrics.counter registry "faults/episodes_truncated")
   | _ -> ());
  let announce_counter =
    match metrics with
    | Some registry when announce ->
      Some (Abe_sim.Metrics.counter registry "announce/messages")
    | _ -> None
  in
  (* Nodes that forwarded (or, at the leader, closed) the announcement
     lap; a rejoin forgets it along with the rest of the node's state. *)
  let informed = Array.make (if announce then config.n else 0) false in
  (* Phase transitions as causal marks: instantaneous annotations attached
     to the handler span in which they happened.  Here and in [sim] below
     the hooks are matched in place, and the clock is read only where a
     hook that is on uses it: a closure passed to [Option.iter], or a boxed
     time read for nothing, is an allocation per message. *)
  let cmark ctx label =
    match causal with
    | None -> ()
    | Some c ->
      Abe_sim.Causal.mark c ~node:ctx.Net.node ~time:(ctx.Net.now ()) label
  in
  (* Tokens in circulation: born at activation, absorbed at purge or
     election (forwarding keeps the token alive). *)
  let live_tokens () =
    counters.activations - counters.purges - counters.elections
  in
  (* A pooled ring when one is free: its network is reset by [Net.create]
     below, its shadow and monitor here. *)
  let pooled = take config.pool in
  let monitor =
    Option.map
      (fun oracle ->
         let clock =
           match scheduler with
           | None -> Some config.params.Params.clock
           | Some _ -> None
         in
         match pooled with
         | Some { monitor = Some m; _ } ->
           Monitor.reset m ~oracle ?clock ();
           m
         | Some { monitor = None; _ } | None ->
           Monitor.create ~oracle ?clock ~fifo:false ~dynamic ~nodes:config.n
             ~links:config.n ())
      oracle
  in
  (* Shadow copy of all node states, to sample the ring-wide wake-up mass
     Σ d over non-passive nodes whenever the phase distribution changes. *)
  let shadow =
    match pooled with
    | Some { shadow; _ } ->
      Array.fill shadow 0 config.n Election.initial;
      shadow
    | None -> Array.make config.n Election.initial
  in
  (* In-flight token multiset for the exploration digest: an
     order-independent sum of per-message keys (destination, hop), added
     at send and subtracted at delivery, so two schedule prefixes only
     share a digest when the same tokens are in the air.  Maintained only
     under a scheduler (the digest is never consulted otherwise); message
     drops (loss, crash, link outage) are not subtracted — those runs mix
     the drop counters into the digest instead, which separates them from
     any lossless prefix. *)
  let track_inflight = scheduler <> None in
  let inflight_hash = ref 0 in
  let token_key dst hop = mix 0x5DEECE66D ((dst * 8_191) + hop) in
  let note_send dst hop =
    if track_inflight then
      inflight_hash := (!inflight_hash + token_key dst hop) land max_int
  in
  let note_recv dst hop =
    if track_inflight then
      inflight_hash := (!inflight_hash - token_key dst hop) land max_int
  in
  let successor node = if node + 1 = config.n then 0 else node + 1 in
  let record_phase time node before after =
    if config.record_phases && before.Election.phase <> after.Election.phase
    then
      counters.phase_transitions <-
        (time, node, after.Election.phase) :: counters.phase_transitions
  in
  (* Each sample walks the whole shadow ring, and samples are taken per
     knockout/purge — O(n^2) over an election, which is why huge-ring
     benchmarks opt out via [record_mass = false]. *)
  let sample_mass ctx =
    if config.record_mass then begin
      (* A loop, not [Array.iter]: the counters stay in registers. *)
      let sum_d = ref 0 and non_passive = ref 0 in
      for node = 0 to Array.length shadow - 1 do
        let st = shadow.(node) in
        match st.Election.phase with
        | Election.Idle | Election.Active ->
          sum_d := !sum_d + st.Election.d;
          incr non_passive
        | Election.Passive | Election.Leader -> ()
      done;
      counters.mass_samples <-
        (ctx.Net.now (), !sum_d, !non_passive) :: counters.mass_samples
    end
  in
  (* Election-layer reaction to dynamic-network events, layered over the
     monitor's observer (observers stay pure probes — neither layer draws
     randomness or schedules anything except the stall stop below):

     - [Revive]: the node rejoined with its protocol state reset, so the
       shadow ring (mass sampling, digests) must reset with it;
     - [Crash] of a node with no scheduled rejoin that the run's goal
       still needs: on a unidirectional ring the election token must
       traverse {e every} link, and so must the announcement, so a
       permanently dead node makes the goal impossible — stop the run
       with a structured reason instead of burning the whole time budget
       on it. *)
  let stall = ref None in
  let stop_engine = ref (fun () -> ()) in
  let revivable =
    List.fold_left
      (fun acc (node, _) -> if List.mem node acc then acc else node :: acc)
      [] fault.Faults.revivals
  in
  let monitor_observer = Option.map Monitor.observer monitor in
  let observer =
    (* With no crash, rejoin or outage to react to, the monitor's own
       observer is installed as it is. *)
    if dynamic = Monitor.Static && net_config.Network.crash_times = [] then
      monitor_observer
    else
      Some
        (fun ~time ~stats ~in_flight ev ->
           (match (ev : Network.event) with
            | Network.Revive { node } ->
              record_phase time node shadow.(node) Election.initial;
              shadow.(node) <- Election.initial;
              if announce then informed.(node) <- false
            | Network.Crash { node } ->
              (* Before the election every node is needed; afterwards, in
                 announce mode, every node the lap has yet to pass. *)
              if
                (counters.elections = 0 || (announce && not informed.(node)))
                && (not (List.mem node revivable))
                && !stall = None
              then begin
                stall :=
                  Some
                    (Printf.sprintf
                       "node %d crashed with no rejoin at t=%g: %s cannot \
                        complete" node time
                       (if counters.elections = 0 then "ring election"
                        else "announcement lap"));
                !stop_engine ()
              end
            | _ -> ());
           match monitor_observer with
           | None -> ()
           | Some f -> f ~time ~stats ~in_flight ev)
  in
  let send_announce ctx =
    counters.announce_messages <- counters.announce_messages + 1;
    Option.iter (fun c -> Abe_sim.Metrics.incr c) announce_counter;
    ctx.Net.send 0 Announce
  in
  let sim =
    { n = config.n;
      activation = config.activation;
      passive = config.pool.passive;
      forwarding;
      moved =
        (fun ctx before after ->
           shadow.(ctx.Net.node) <- after;
           if config.record_phases then
             record_phase (ctx.Net.now ()) ctx.Net.node before after);
      mark =
        (fun ctx m ~traversed ->
           cmark ctx (mark_label m);
           match m with
           | Activate ->
             let time = ctx.Net.now () in
             counters.activations <- counters.activations + 1;
             counters.activation_times <- time :: counters.activation_times;
             (match instruments with
              | None -> ()
              | Some i ->
                Abe_sim.Metrics.incr i.m_activations;
                Abe_sim.Metrics.observe i.m_activation_time time;
                Abe_sim.Metrics.observe_int i.m_live_tokens (live_tokens ()))
           | Knockout ->
             counters.knockouts <- counters.knockouts + 1;
             (match instruments with
              | None -> ()
              | Some i -> Abe_sim.Metrics.incr i.m_knockouts);
             sample_mass ctx
           | Purge ->
             counters.purges <- counters.purges + 1;
             (match instruments with
              | None -> ()
              | Some i ->
                Abe_sim.Metrics.incr i.m_purges;
                Abe_sim.Metrics.observe_int i.m_live_tokens (live_tokens ()));
             sample_mass ctx
           | Elected ->
             let time = ctx.Net.now () in
             counters.elections <- counters.elections + 1;
             (match instruments with
              | None -> ()
              | Some i ->
                Abe_sim.Metrics.set_gauge i.m_elected_at time;
                Abe_sim.Metrics.set_gauge i.m_hops_at_election
                  (float_of_int traversed));
             (match oracle with
              | None -> ()
              | Some o ->
                if traversed <> config.n then
                  Abe_sim.Oracle.reportf o ~time
                    ~invariant:"election-soundness"
                    ~subject:(Printf.sprintf "node %d" ctx.Net.node)
                    "elected by a token that traversed %d of %d links"
                    traversed config.n;
                if counters.elections > 1 then
                  Abe_sim.Oracle.reportf o ~time ~invariant:"unique-leader"
                    ~subject:(Printf.sprintf "node %d" ctx.Net.node)
                    "election #%d in one run" counters.elections);
             counters.elected_at <- time;
             counters.leader <- Some ctx.Net.node;
             (* The electing delivery's handler span is the critical-path
                sink: its completion is the elected-at instant. *)
             Option.iter Abe_sim.Causal.set_sink causal;
             sample_mass ctx;
             if announce then send_announce ctx else ctx.Net.stop ());
      send =
        (fun ctx ~hop ~traversed ->
           ctx.Net.send 0 (Token { hop; traversed });
           note_send (successor ctx.Net.node) hop);
      unsound =
        (fun ctx ~hop ~traversed ->
           Option.iter
             (fun o ->
                Abe_sim.Oracle.reportf o ~time:(ctx.Net.now ())
                  ~invariant:"hop-soundness"
                  ~subject:(Printf.sprintf "node %d" ctx.Net.node)
                  "token hop %d but traversed %d links" hop traversed)
             oracle) }
  in
  let handlers : Net.handlers =
    { init = (fun _ctx -> Election.initial);
      on_tick = (fun ctx st -> on_tick sim ctx ~rng:ctx.Net.rng st);
      on_message =
        (fun ctx st -> function
           | Token { hop; traversed } ->
             note_recv ctx.Net.node hop;
             (match instruments with
              | None -> ()
              | Some i -> Abe_sim.Metrics.observe_int i.m_token_hops hop);
             on_token sim ctx st ~hop ~traversed
           | Announce ->
             informed.(ctx.Net.node) <- true;
             if st.Election.phase = Election.Leader then begin
               (* The lap is closed: everyone is informed. *)
               counters.informed_at <- ctx.Net.now ();
               cmark ctx "informed";
               ctx.Net.stop ()
             end
             else send_announce ctx;
             st) }
  in
  let net =
    Net.create
      ?reuse:(match pooled with Some { net; _ } -> Some net | None -> None)
      ?trace ?metrics ?scheduler ?causal ?observer
      ~limit_time:config.limit_time ~limit_events:config.limit_events
      ~wall_deadline ~seed net_config handlers
  in
  (* An unchecked run keeps the ring's monitor for the next checked one. *)
  let kept =
    match monitor, pooled with
    | None, Some { monitor; _ } -> monitor
    | monitor, _ -> monitor
  in
  (* Back to the pool however the run ends; the next taker resets it. *)
  Fun.protect ~finally:(fun () ->
      give config.pool { net; shadow; monitor = kept })
  @@ fun () ->
  (stop_engine := fun () -> Abe_sim.Engine.stop (Net.engine net));
  (* State digest for exploration-time pruning: a 62-bit avalanche hash of
     the canonical state — per-node phase and watermark, the election
     counters, the network's conservation counters (drop classes
     included), and the in-flight token multiset.  Two schedule prefixes
     that reconverge to the same digest head identical residual state
     spaces (up to in-flight timing), so an explorer can prune one. *)
  if scheduler <> None then begin
    Abe_sim.Engine.set_digest_source (Net.engine net) (fun () ->
        let h = ref 0x3C79AC492BA7B653 in
        Array.iter
          (fun st ->
             let phase =
               match st.Election.phase with
               | Election.Idle -> 0
               | Election.Active -> 1
               | Election.Passive -> 2
               | Election.Leader -> 3
             in
             h := mix !h ((st.Election.d * 4) + phase))
          shadow;
        h := mix !h counters.activations;
        h := mix !h counters.knockouts;
        h := mix !h counters.purges;
        h := mix !h counters.elections;
        let stats = Net.stats net in
        h := mix !h stats.Network.sent;
        h := mix !h stats.Network.delivered;
        h := mix !h stats.Network.lost;
        h := mix !h stats.Network.crashed_drops;
        h := mix !h stats.Network.link_drops;
        h := mix !h (Net.in_flight net);
        h := mix !h !inflight_hash;
        !h)
  end;
  let engine_outcome = Net.run net in
  let leader_count = ref 0 in
  for node = 0 to config.n - 1 do
    if (Net.state net node).Election.phase = Election.Leader then
      incr leader_count
  done;
  let leader_count = !leader_count in
  let violations =
    match oracle, monitor with
    | Some o, Some m ->
      let time = Net.now net in
      if leader_count > 1 then
        Abe_sim.Oracle.reportf o ~time ~invariant:"unique-leader"
          ~subject:"ring" "%d nodes in the leader phase" leader_count;
      Monitor.check_quiescence m ~time ~outcome:engine_outcome
        ~in_flight:(Net.in_flight net);
      Abe_sim.Oracle.violations o
    | _ -> []
  in
  let stats = Net.stats net in
  let engine_counters = Net.counters net in
  { election =
      { elected = Option.is_some counters.leader;
        leader = counters.leader;
        leader_count;
        elected_at = counters.elected_at;
        messages = stats.Network.sent - counters.announce_messages;
        activations = counters.activations;
        knockouts = counters.knockouts;
        purges = counters.purges;
        ticks = stats.Network.ticks;
        activation_times = Array.of_list (List.rev counters.activation_times);
        mass_samples = Array.of_list (List.rev counters.mass_samples);
        phase_transitions =
          Array.of_list (List.rev counters.phase_transitions);
        executed_events = engine_counters.Abe_sim.Engine.executed;
        max_queue_depth = engine_counters.Abe_sim.Engine.max_queue_depth;
        wall_time = engine_counters.Abe_sim.Engine.wall_time;
        engine_outcome;
        violations;
        stalled = !stall };
    announce_messages = counters.announce_messages;
    all_informed = announce && Array.for_all Fun.id informed;
    informed_at = counters.informed_at }

let run ?trace ?metrics ?scheduler ?causal ?check ?forwarding ?wall_deadline
    ~seed (config : config) =
  (run_with ~announce:false ?trace ?metrics ?scheduler ?causal ?check
     ?forwarding ?wall_deadline ~seed config)
    .election

let announce ?trace ?metrics ?causal ?check ~seed (config : config) =
  run_with ~announce:true ?trace ?metrics ?causal ?check ~seed config

let pp_outcome ppf o =
  Fmt.pf ppf
    "elected=%b leader=%a time=%.3f messages=%d activations=%d knockouts=%d \
     purges=%d ticks=%d"
    o.elected
    Fmt.(option ~none:(any "-") int)
    o.leader o.elected_at o.messages o.activations o.knockouts o.purges o.ticks;
  (* Appended only when a stall was detected, so every non-stalled outcome
     renders byte-identically to earlier releases. *)
  match o.stalled with
  | None -> ()
  | Some reason -> Fmt.pf ppf " stalled=%S" reason

let pp_announced ppf o =
  Fmt.pf ppf "%a | announce=%d all_informed=%b informed_at=%.3f" pp_outcome
    o.election o.announce_messages o.all_informed o.informed_at
