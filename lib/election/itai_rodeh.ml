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

type state = phase_state

module Proto = struct
  type nonrec state = state
  type message = token
end

module Ring = Sync_ring.Make (Proto)

let fresh_id rng n = Abe_prob.Rng.int_range rng ~lo:1 ~hi:n

(* The algorithm's pure core, shared by the synchronous-ring executor below
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

type outcome = {
  elected : bool;
  leader : int option;
  leader_count : int;
  rounds : int;
  phases : int;
  messages : int;
}

let run ~seed ~n () =
  if n < 2 then invalid_arg "Itai_rodeh.run: n must be >= 2";
  let handlers : Ring.handlers =
    { init =
        (fun ctx ->
           let id = fresh_id ctx.Ring.rng n in
           ctx.Ring.send { phase = 1; id; hop = 1; bit = true };
           Active { phase = 1; id });
      on_round =
        (fun ctx st incoming ->
           (* Tokens are processed in arrival order; the state may change
              between tokens of the same round. *)
           List.fold_left
             (fun st token ->
                let fresh_id () = fresh_id ctx.Ring.rng n in
                let st', reaction = transition ~n ~fresh_id st token in
                (match reaction with
                 | Relay token' | Launch token' -> ctx.Ring.send token'
                 | Won -> ctx.Ring.stop ()
                 | Discard -> ());
                st')
             st incoming) }
  in
  let ring = Ring.create ~seed ~n handlers in
  let outcome = Ring.run ring in
  let states = Ring.states ring in
  let leaders =
    Array.to_list states
    |> List.filteri (fun _ st -> match st with Leader _ -> true | _ -> false)
  in
  let leader_index =
    let found = ref None in
    Array.iteri
      (fun i st -> match st with Leader _ -> found := Some i | _ -> ())
      states;
    !found
  in
  let phases =
    match leader_index with
    | Some i -> (match states.(i) with Leader { phase } -> phase | _ -> 0)
    | None -> 0
  in
  let rounds =
    match outcome with
    | Ring.Stopped r | Ring.Quiescent r -> r
    | Ring.Round_limit -> Ring.round ring
  in
  { elected = leader_index <> None;
    leader = leader_index;
    leader_count = List.length leaders;
    rounds;
    phases;
    messages = Ring.messages_sent ring }

let pp_outcome ppf o =
  Fmt.pf ppf "elected=%b leader=%a rounds=%d phases=%d messages=%d" o.elected
    Fmt.(option ~none:(any "-") int)
    o.leader o.rounds o.phases o.messages
