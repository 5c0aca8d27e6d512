type outcome = {
  elected : bool;
  leader : int option;
  leader_count : int;
  rounds : int;
  phases : int;
  messages : int;
}

let pp_outcome ~phases ppf o =
  Fmt.pf ppf "elected=%b leader=%a rounds=%d" o.elected
    Fmt.(option ~none:(any "-") int)
    o.leader o.rounds;
  if phases then Fmt.pf ppf " phases=%d" o.phases;
  Fmt.pf ppf " messages=%d" o.messages

let identities ~seed n =
  let ids = Array.init (max n 0) (fun i -> i + 1) in
  Abe_prob.Rng.shuffle (Abe_prob.Rng.create ~seed) ids;
  ids

module Make (P : sig
  type state
  type message

  val leader_phase : state -> int option
end) =
struct
  include Abe_net.Lockstep.Make (P)

  let elect ~name ~seed ~n ~init ~receive =
    if n < 2 then invalid_arg (name ^ ".run: n must be >= 2");
    let on_round ctx state incoming =
      List.fold_left (receive ctx) state incoming
    in
    let r = run ~seed ~topology:(Abe_net.Topology.ring n) { init; on_round } in
    let leader = ref None and leader_count = ref 0 and phases = ref 0 in
    Array.iteri
      (fun i state ->
         match P.leader_phase state with
         | Some phase ->
           leader := Some i;
           incr leader_count;
           phases := phase
         | None -> ())
      r.states;
    { elected = !leader <> None;
      leader = !leader;
      leader_count = !leader_count;
      rounds = r.rounds;
      phases = !phases;
      messages = r.messages }
end
