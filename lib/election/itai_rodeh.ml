type token = {
  phase : int;
  id : int;    (* random identifier in 1..n *)
  hop : int;   (* hops travelled so far, 1..n *)
  bit : bool;  (* true while no identifier tie has been observed *)
}

type phase_state =
  | Active of { phase : int; id : int }
  | Passive
  | Leader of { phase : int }

let fresh_id rng n = Abe_prob.Rng.int_range rng ~lo:1 ~hi:n

(* The algorithm's pure core, shared by the synchronous-ring run below
   and the ABE-network adapter (Async_baselines).  Requires FIFO links. *)
type reaction =
  | Relay of token        (* forward (possibly bit-flagged) *)
  | Launch of token       (* tie among maxima: start the next phase *)
  | Won                   (* own token returned unbeaten *)
  | Discard               (* weaker or stale token *)

let transition ~n ~fresh_id state token =
  match state with
  | Passive -> (Passive, Relay { token with hop = token.hop + 1 })
  | Leader _ -> (state, Discard)
  | Active { phase; id } ->
    if (token.phase, token.id) = (phase, id) then
      if token.hop = n then
        if token.bit then (Leader { phase }, Won)
        else begin
          let id' = fresh_id () in
          ( Active { phase = phase + 1; id = id' },
            Launch { phase = phase + 1; id = id'; hop = 1; bit = true } )
        end
      else (state, Relay { token with hop = token.hop + 1; bit = false })
    else if (token.phase, token.id) > (phase, id) then
      (Passive, Relay { token with hop = token.hop + 1 })
    else (state, Discard)

type outcome = Sync_baseline.outcome = {
  elected : bool; leader : int option; leader_count : int;
  rounds : int; phases : int; messages : int }

module Ring = Sync_baseline.Make (struct
  type state = phase_state
  type message = token

  let leader_phase = function
    | Leader { phase } -> Some phase
    | Active _ | Passive -> None
end)

let run ~seed ~n () =
  Ring.elect ~name:"Itai_rodeh" ~seed ~n
    ~init:(fun ctx ->
      let id = fresh_id ctx.Ring.rng n in
      ctx.Ring.send 0 { phase = 1; id; hop = 1; bit = true };
      Active { phase = 1; id })
    ~receive:(fun ctx st token ->
      let fresh_id () = fresh_id ctx.Ring.rng n in
      let st', reaction = transition ~n ~fresh_id st token in
      (match reaction with
       | Relay token' | Launch token' -> ctx.Ring.send 0 token'
       | Won -> ctx.Ring.stop ()
       | Discard -> ());
      st')
