open Abe_prob

type result = {
  attempts : int;
  delay : float;
}

let check_params ~p ~slot =
  if not (p > 0. && p <= 1.) then
    invalid_arg "Retransmission: success probability outside (0,1]";
  if not (slot > 0.) then invalid_arg "Retransmission: slot must be positive"

(* Sample the model directly: attempts ~ Geometric(p), delay = slot *
   attempts. *)
let simulate_direct ~rng ~p ~slot =
  let attempts = Rng.geometric rng ~p in
  { attempts; delay = slot *. float_of_int attempts }

(* Event-driven stop-and-wait through the discrete-event engine: the
   sender transmits a frame (propagation time [slot], lost with probability
   [1-p]) and retransmits when no acknowledgement arrived within one slot
   (acknowledgements are instantaneous and reliable, as in the paper's
   abstraction).  It samples the same law as [simulate_direct]. *)
let simulate_arq ~rng ~p ~slot =
  let engine = Abe_sim.Engine.create () in
  let attempts = ref 0 in
  let received_at = ref nan in
  let rec transmit () =
    incr attempts;
    let sent_at = Abe_sim.Engine.now engine in
    if Rng.bernoulli rng p then
      (* Frame survives: receiver gets it after the propagation slot and the
         (instant, reliable) acknowledgement stops the sender. *)
      Abe_sim.Engine.schedule engine ~delay:slot (fun () ->
          received_at := sent_at +. slot;
          Abe_sim.Engine.stop engine)
    else
      (* Frame lost: the sender times out and tries again. *)
      Abe_sim.Engine.schedule engine ~delay:slot transmit
  in
  transmit ();
  (match Abe_sim.Engine.run engine with
   | Abe_sim.Engine.Stopped | Abe_sim.Engine.Drained -> ()
   | Abe_sim.Engine.Hit_time_limit | Abe_sim.Engine.Hit_event_limit
   | Abe_sim.Engine.Hit_wall_deadline ->
     (* Unreachable: success has positive probability and no budget is set. *)
     assert false);
  { attempts = !attempts; delay = !received_at }

type batch = {
  p : float;
  messages : int;
  attempts : Stats.summary;
  delay : Stats.summary;
  predicted_attempts : float;
  predicted_delay : float;
}

let run_batch ?(arq = false) ~seed ~p ~slot ~messages () =
  check_params ~p ~slot;
  if messages <= 0 then invalid_arg "Retransmission.run_batch: messages must be positive";
  let rng = Rng.create ~seed in
  let attempt_stats = Stats.create () in
  let delay_stats = Stats.create () in
  for _ = 1 to messages do
    let result =
      if arq then simulate_arq ~rng ~p ~slot
      else simulate_direct ~rng ~p ~slot
    in
    Stats.add attempt_stats (float_of_int result.attempts);
    Stats.add delay_stats result.delay
  done;
  { p;
    messages;
    attempts = Stats.summary attempt_stats;
    delay = Stats.summary delay_stats;
    predicted_attempts = Analysis.k_avg ~p;
    predicted_delay = Analysis.retransmission_delay_mean ~p ~slot }

let delay_model ~p ~slot =
  check_params ~p ~slot;
  Abe_net.Delay_model.abe_retransmission ~success:p ~slot
