(* Visualise one election as an ASCII timeline.

   Glyphs: '.' idle, 'a' active (token in flight), 'p' passive (knocked
   out), 'L' leader.  Watch tokens knock out stretches of idle nodes,
   collisions demote actives back to idle, and finally one token complete
   the full circle. *)

let () =
  let n = 24 in
  (* Moderately hot so that the picture shows a few collisions. *)
  let config = Abe_core.Runner.config ~n ~a0:(8. /. float_of_int (n * n)) () in
  let outcome = Abe_core.Runner.run ~seed:9 config in
  assert outcome.Abe_core.Runner.elected;
  let duration = outcome.Abe_core.Runner.elected_at in
  let glyph = function
    | Abe_core.Election.Idle -> '.'
    | Abe_core.Election.Active -> 'a'
    | Abe_core.Election.Passive -> 'p'
    | Abe_core.Election.Leader -> 'L'
  in
  let events =
    Array.to_list outcome.Abe_core.Runner.phase_transitions
    |> List.map (fun (time, node, phase) ->
        { Abe_harness.Timeline.time; row = node; glyph = glyph phase })
  in
  Fmt.pr
    "ABE election on %d anonymous nodes (seed 9): '.' idle, 'a' active, \
     'p' passive, 'L' leader@.@."
    n;
  print_string
    (Abe_harness.Timeline.render ~rows:n ~duration ~initial:'.' events);
  Fmt.pr "@.%a@." Abe_core.Runner.pp_outcome outcome
