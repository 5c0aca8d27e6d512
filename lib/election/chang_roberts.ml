type state =
  | Contending of { id : int }
  | Relaying of { id : int }
  | Leader of { id : int }

type reaction = Forward | Win | Drop

let transition state candidate =
  match state with
  | Leader _ -> (state, Drop)
  | Relaying { id } -> (state, if candidate > id then Forward else Drop)
  | Contending { id } ->
    if candidate = id then (Leader { id }, Win)
    else if candidate > id then (Relaying { id }, Forward)
    else (state, Drop)

let pp_state ppf = function
  | Contending { id } -> Fmt.pf ppf "contending(%d)" id
  | Relaying { id } -> Fmt.pf ppf "relaying(%d)" id
  | Leader { id } -> Fmt.pf ppf "leader(%d)" id

module Proto = struct
  type nonrec state = state
  type message = int  (* a candidate identifier *)

  let pp_state = pp_state
  let pp_message = Format.pp_print_int
end

module Ring = Sync_ring.Make (Proto)

type outcome = {
  elected : bool;
  leader : int option;
  leader_count : int;
  rounds : int;
  messages : int;
}

let run ?max_rounds ~seed ~n () =
  if n < 2 then invalid_arg "Chang_roberts.run: n must be >= 2";
  (* Unique identifiers: a seed-determined random permutation of 1..n.
     The permutation is global setup, not node-local randomness — CR is an
     algorithm for non-anonymous rings. *)
  let ids = Array.init n (fun i -> i + 1) in
  Abe_prob.Rng.shuffle (Abe_prob.Rng.create ~seed) ids;
  let handlers : Ring.handlers =
    { init =
        (fun ctx ->
           let id = ids.(ctx.Ring.node) in
           ctx.Ring.send id;
           Contending { id });
      on_round =
        (fun ctx st incoming ->
           List.fold_left
             (fun st candidate ->
                let st', reaction = transition st candidate in
                (match reaction with
                 | Forward -> ctx.Ring.send candidate
                 | Win -> ctx.Ring.stop ()
                 | Drop -> ());
                st')
             st incoming) }
  in
  let ring = Ring.create ~seed:(seed + 1) ~n handlers in
  let outcome = Ring.run ?max_rounds ring in
  let states = Ring.states ring in
  let leader =
    let found = ref None in
    Array.iteri
      (fun i st -> match st with Leader _ -> found := Some i | _ -> ())
      states;
    !found
  in
  let leader_count =
    Array.fold_left
      (fun acc st -> match st with Leader _ -> acc + 1 | _ -> acc)
      0 states
  in
  let rounds =
    match outcome with
    | Ring.Stopped r | Ring.Quiescent r -> r
    | Ring.Round_limit -> Ring.round ring
  in
  { elected = leader <> None;
    leader;
    leader_count;
    rounds;
    messages = Ring.messages_sent ring }

let pp_outcome ppf o =
  Fmt.pf ppf "elected=%b leader=%a rounds=%d messages=%d" o.elected
    Fmt.(option ~none:(any "-") int)
    o.leader o.rounds o.messages
