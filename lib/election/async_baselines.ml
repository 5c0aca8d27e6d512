open Abe_net

type outcome = {
  elected : bool;
  leader : int option;
  leader_count : int;
  elected_at : float;
  messages : int;
}

(* --------------------------------------------------------- Itai-Rodeh *)

module Ir_net = Network.Make (struct
    type state = Itai_rodeh.phase_state
    type message = Itai_rodeh.token

    let pp_state ppf = function
      | Itai_rodeh.Active { phase; id } ->
        Fmt.pf ppf "active(phase=%d,id=%d)" phase id
      | Itai_rodeh.Passive -> Fmt.pf ppf "passive"
      | Itai_rodeh.Leader { phase } -> Fmt.pf ppf "leader(phase=%d)" phase

    let pp_message ppf (t : Itai_rodeh.token) =
      Fmt.pf ppf "(phase=%d,id=%d,hop=%d,bit=%b)" t.Itai_rodeh.phase
        t.Itai_rodeh.id t.Itai_rodeh.hop t.Itai_rodeh.bit
  end)

let itai_rodeh ~seed ~n () =
  if n < 2 then invalid_arg "Async_baselines.itai_rodeh: n must be >= 2";
  let elected_at = ref nan in
  let leader = ref None in
  let handlers : Ir_net.handlers =
    { init =
        (fun ctx ->
           let id = Abe_prob.Rng.int_range ctx.Ir_net.rng ~lo:1 ~hi:n in
           ctx.Ir_net.send 0
             { Itai_rodeh.phase = 1; id; hop = 1; bit = true };
           Itai_rodeh.Active { phase = 1; id });
      on_tick = (fun _ctx st -> st);
      on_message =
        (fun ctx st token ->
           let fresh_id () = Abe_prob.Rng.int_range ctx.Ir_net.rng ~lo:1 ~hi:n in
           let st', reaction = Itai_rodeh.transition ~n ~fresh_id st token in
           (match reaction with
            | Itai_rodeh.Relay token' | Itai_rodeh.Launch token' ->
              ctx.Ir_net.send 0 token'
            | Itai_rodeh.Won ->
              elected_at := ctx.Ir_net.now ();
              leader := Some ctx.Ir_net.node;
              ctx.Ir_net.stop ()
            | Itai_rodeh.Discard -> ());
           st') }
  in
  let config =
    { (Ir_net.default_config ~topology:(Topology.ring n)
         ~delay:(Delay_model.abe_exponential ~delta:1.))
      with
      Ir_net.ticks_enabled = false;
      (* The asynchronous Itai-Rodeh algorithm assumes FIFO links — unlike
         the paper's election, which tolerates arbitrary reordering. *)
      fifo = true }
  in
  let net =
    Ir_net.create ~limit_time:1e7 ~limit_events:100_000_000 ~seed:(seed + 1)
      config handlers
  in
  ignore (Ir_net.run net);
  let leader_count =
    Array.fold_left
      (fun acc st ->
         match st with Itai_rodeh.Leader _ -> acc + 1 | _ -> acc)
      0 (Ir_net.states net)
  in
  { elected = Option.is_some !leader;
    leader = !leader;
    leader_count;
    elected_at = !elected_at;
    messages = (Ir_net.stats net).Network.sent }
