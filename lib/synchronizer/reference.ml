module Make (A : Sync_alg.S) = struct
  module Exec = Abe_net.Lockstep.Make (A)

  type run = {
    states : A.state array;
    payload_messages : int;
  }

  let run ~seed ~topology ~pulses =
    if pulses < 1 then invalid_arg "Reference.run: pulses must be >= 1";
    let open Abe_net in
    let out_degree node = Topology.out_degree topology node in
    let step ctx ~pulse state inbox =
      let node = ctx.Exec.node in
      let state, sends =
        A.pulse ~node ~pulse ~out_degree:(out_degree node) state ~inbox
      in
      List.iter (fun (link, message) -> ctx.Exec.send link message) sends;
      state
    in
    (* Pulse 1 has an empty inbox, so it runs inside [init]; round r is
       pulse r + 1. *)
    let init ctx =
      let node = ctx.Exec.node in
      let state =
        A.init ~node ~n:(Topology.node_count topology)
          ~out_degree:(out_degree node) ~rng:ctx.Exec.rng
      in
      step ctx ~pulse:1 state []
    in
    let on_round ctx = step ctx ~pulse:(ctx.Exec.round () + 1) in
    let r =
      Exec.run ~max_rounds:(pulses - 1) ~seed ~topology { init; on_round }
    in
    { states = r.Exec.states; payload_messages = r.Exec.messages }
end
