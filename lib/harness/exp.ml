let seeds ~base ~count =
  if count < 1 then invalid_arg "Exp.seeds: count must be >= 1";
  (* Derive well-separated seeds from the base via the generator itself so
     that consecutive bases do not produce overlapping streams. *)
  let rng = Abe_prob.Rng.create ~seed:base in
  List.init count (fun _ ->
      Int64.to_int (Int64.shift_right_logical (Abe_prob.Rng.bits64 rng) 2))

let replicate ?(driver = Driver.Sequential) ~base ~count f =
  Driver.map driver (fun seed -> f ~seed) (seeds ~base ~count)

let replicate_timed ?(driver = Driver.Sequential) ~base ~count f =
  Driver.timed_map driver (fun seed -> f ~seed) (seeds ~base ~count)

let replicate_merged ?(driver = Driver.Sequential) ~base ~count f =
  (* Each replicate owns a private registry — under a Domain-parallel
     driver a shared one would race — and the merge folds in seed order
     whatever the driver, so the merged registry is byte-identical
     between Sequential and Parallel. *)
  let results, timing =
    Driver.timed_map driver
      (fun seed ->
         let metrics = Abe_sim.Metrics.create () in
         let result = f ~seed ~metrics in
         (result, metrics))
      (seeds ~base ~count)
  in
  let merged = Abe_sim.Metrics.create () in
  List.iter
    (fun (_, metrics) -> Abe_sim.Metrics.merge_into ~into:merged metrics)
    results;
  (List.map fst results, merged, timing)

let summary_of project results =
  let stats = Abe_prob.Stats.create () in
  List.iter (fun r -> Abe_prob.Stats.add stats (project r)) results;
  Abe_prob.Stats.summary stats

let mean_of project results = (summary_of project results).Abe_prob.Stats.mean

let fraction_of predicate results =
  match results with
  | [] -> invalid_arg "Exp.fraction_of: empty result list"
  | _ ->
    let hits = List.length (List.filter predicate results) in
    float_of_int hits /. float_of_int (List.length results)
