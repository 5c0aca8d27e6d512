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

type outcome = Sync_baseline.outcome = {
  elected : bool; leader : int option; leader_count : int;
  rounds : int; phases : int; messages : int }

module Ring = Sync_baseline.Make (struct
  type nonrec state = state
  type message = int  (* a candidate identifier *)

  let leader_phase = function
    | Leader _ -> Some 0
    | Contending _ | Relaying _ -> None
end)

let run ~seed ~n () =
  let ids = Sync_baseline.identities ~seed n in
  Ring.elect ~name:"Chang_roberts" ~seed:(seed + 1) ~n
    ~init:(fun ctx ->
      let id = ids.(ctx.Ring.node) in
      ctx.Ring.send 0 id;
      Contending { id })
    ~receive:(fun ctx st candidate ->
      let st', reaction = transition st candidate in
      (match reaction with
       | Forward -> ctx.Ring.send 0 candidate
       | Win -> ctx.Ring.stop ()
       | Drop -> ());
      st')
