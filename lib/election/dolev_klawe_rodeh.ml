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

type outcome = Sync_baseline.outcome = {
  elected : bool; leader : int option; leader_count : int;
  rounds : int; phases : int; messages : int }

module Ring = Sync_baseline.Make (struct
  type nonrec state = state
  type nonrec message = message

  let leader_phase = function
    | Leader { phase; _ } -> Some phase
    | Active _ | Passive -> None
end)

let run ~seed ~n () =
  let ids = Sync_baseline.identities ~seed n in
  Ring.elect ~name:"Dolev_klawe_rodeh" ~seed:(seed + 1) ~n
    ~init:(fun ctx ->
      let cv = ids.(ctx.Ring.node) in
      ctx.Ring.send 0 (First cv);
      Active { cv; phase = 1; pending = None })
    ~receive:(fun ctx st message ->
      match st, message with
      | Leader _, _ -> st
      | Passive, _ ->
        ctx.Ring.send 0 message;
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
          ctx.Ring.send 0 (Second v1);
          Active { cv; phase; pending = Some v1 }
        end
      | Active { cv; phase; pending = Some v1 }, Second v2 ->
        if v1 > v2 && v1 > cv then begin
          (* v1 is a local maximum among active values: survive
             into the next phase holding it. *)
          ctx.Ring.send 0 (First v1);
          Active { cv = v1; phase = phase + 1; pending = None }
        end
        else
          (* v1 is not a local maximum: retire to relaying. *)
          Passive
      | Active _, First _ | Active _, Second _ ->
        (* Protocol violation: in a phase an active node receives
           exactly one First then one Second. *)
        assert false)
