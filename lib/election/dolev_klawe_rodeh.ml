type message =
  | First of int   (* the sender's current value *)
  | Second of int  (* relayed value of the sender's nearest active predecessor *)

type state =
  | Active of {
      cv : int;            (* current value *)
      phase : int;
      pending : int option; (* v1, once the First of this phase arrived *)
    }
  | Passive
  | Leader of { cv : int; phase : int }

module Proto = struct
  type nonrec state = state
  type nonrec message = message
end

module Ring = Sync_ring.Make (Proto)

type outcome = {
  elected : bool;
  leader : int option;
  leader_count : int;
  rounds : int;
  phases : int;
  messages : int;
}

let run ~seed ~n () =
  if n < 2 then invalid_arg "Dolev_klawe_rodeh.run: n must be >= 2";
  let ids = Array.init n (fun i -> i + 1) in
  Abe_prob.Rng.shuffle (Abe_prob.Rng.create ~seed) ids;
  let handlers : Ring.handlers =
    { init =
        (fun ctx ->
           let cv = ids.(ctx.Ring.node) in
           ctx.Ring.send (First cv);
           Active { cv; phase = 1; pending = None });
      on_round =
        (fun ctx st incoming ->
           List.fold_left
             (fun st message ->
                match st, message with
                | Leader _, _ -> st
                | Passive, _ ->
                  ctx.Ring.send message;
                  Passive
                | Active { cv; phase; pending = None }, First v1 ->
                  if v1 = cv then begin
                    (* Own value returned: sole remaining active node. *)
                    ctx.Ring.stop ();
                    Leader { cv; phase }
                  end
                  else begin
                    (* Learned the nearest active predecessor's value;
                       relay it so the successor learns its v2. *)
                    ctx.Ring.send (Second v1);
                    Active { cv; phase; pending = Some v1 }
                  end
                | Active { cv; phase; pending = Some v1 }, Second v2 ->
                  if v1 > v2 && v1 > cv then begin
                    (* v1 is a local maximum among active values: survive
                       into the next phase holding it. *)
                    ctx.Ring.send (First v1);
                    Active { cv = v1; phase = phase + 1; pending = None }
                  end
                  else
                    (* v1 is not a local maximum: retire to relaying. *)
                    Passive
                | Active _, First _ | Active _, Second _ ->
                  (* Protocol violation: in a phase an active node receives
                     exactly one First then one Second. *)
                  assert false)
             st incoming) }
  in
  let ring = Ring.create ~seed:(seed + 1) ~n handlers in
  let outcome = Ring.run ring in
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
  let phases =
    match leader with
    | Some i -> (match states.(i) with Leader { phase; _ } -> phase | _ -> 0)
    | None -> 0
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
    phases;
    messages = Ring.messages_sent ring }

let pp_outcome ppf o =
  Fmt.pf ppf "elected=%b leader=%a rounds=%d phases=%d messages=%d" o.elected
    Fmt.(option ~none:(any "-") int)
    o.leader o.rounds o.phases o.messages
