module type S = sig
  type state
  type message

  val name : string
  val init : node:int -> n:int -> out_degree:int -> rng:Abe_prob.Rng.t -> state

  val pulse :
    node:int ->
    pulse:int ->
    out_degree:int ->
    state ->
    inbox:message list ->
    state * (int * message) list

  val pp_state : Format.formatter -> state -> unit
  val pp_message : Format.formatter -> message -> unit
end

module Bfs = struct
  type state = {
    distance : int option;
    relayed : bool;
  }

  type message = int  (* the sender's BFS distance *)

  let name = "bfs-broadcast"

  let init ~node ~n:_ ~out_degree:_ ~rng:_ =
    { distance = (if node = 0 then Some 0 else None); relayed = false }

  let all_links out_degree value = List.init out_degree (fun l -> (l, value))

  let pulse ~node:_ ~pulse:_ ~out_degree state ~inbox =
    (* Adopt the smallest distance offered, if still unlabelled. *)
    let state =
      match state.distance, inbox with
      | None, _ :: _ ->
        let best = List.fold_left min max_int inbox in
        { state with distance = Some (best + 1) }
      | (None | Some _), _ -> state
    in
    match state with
    | { distance = Some d; relayed = false } ->
      ({ state with relayed = true }, all_links out_degree d)
    | { distance = Some _; relayed = true } | { distance = None; _ } -> (state, [])

  let distance state = state.distance

  let pp_state ppf s =
    Fmt.pf ppf "bfs(dist=%a,relayed=%b)"
      Fmt.(option ~none:(any "?") int)
      s.distance s.relayed

  let pp_message = Format.pp_print_int
end

module Flood_max = struct
  type state = { value : int }
  type message = int

  let name = "flood-max"

  let init ~node ~n:_ ~out_degree:_ ~rng:_ = { value = node + 1 }

  let pulse ~node:_ ~pulse:_ ~out_degree state ~inbox =
    let value = List.fold_left max state.value inbox in
    ({ value }, List.init out_degree (fun l -> (l, value)))

  let current_max state = state.value

  let pp_state ppf s = Fmt.pf ppf "flood(max=%d)" s.value
  let pp_message = Format.pp_print_int
end
