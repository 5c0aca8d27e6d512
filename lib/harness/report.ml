type verdict = Reproduced | Partially | Failed

type claim = {
  id : string;
  claim : string;
  expectation : string;
  measured : string;
  verdict : verdict;
}

let verdict_of_bool ok = if ok then Reproduced else Failed

let make ~id ~claim ~expectation ~measured ~verdict =
  { id; claim; expectation; measured; verdict }

let pp_verdict ppf = function
  | Reproduced -> Format.pp_print_string ppf "REPRODUCED"
  | Partially -> Format.pp_print_string ppf "PARTIAL"
  | Failed -> Format.pp_print_string ppf "FAILED"

let pp_claim ppf c =
  Fmt.pf ppf "[%s] %a@.  claim:    %s@.  expected: %s@.  measured: %s" c.id
    pp_verdict c.verdict c.claim c.expectation c.measured

type throughput = {
  label : string;
  replicates : int;
  events : int option;
  elapsed : float;
}

let throughput ~label ~replicates ?events ~elapsed () =
  if replicates < 0 then invalid_arg "Report.throughput: negative replicates";
  if not (elapsed >= 0.) then
    invalid_arg "Report.throughput: elapsed must be non-negative";
  { label; replicates; events; elapsed }

(* Avoid infinities on sub-resolution timings. *)
let per_second count elapsed = float_of_int count /. Float.max elapsed 1e-9

let replicates_per_sec t = per_second t.replicates t.elapsed

let events_per_sec t =
  Option.map (fun events -> per_second events t.elapsed) t.events

let pp_throughput ppf t =
  Fmt.pf ppf "throughput: %s | %d replicates in %.3fs = %.1f replicates/s"
    t.label t.replicates t.elapsed (replicates_per_sec t);
  Option.iter
    (fun rate -> Fmt.pf ppf ", %.3g events/s" rate)
    (events_per_sec t)

let metrics_table ?(title = "metrics") registry =
  let table =
    Table.create ~title ~columns:Abe_sim.Metrics.report_columns
  in
  List.iter (Table.add_row table) (Abe_sim.Metrics.report_rows registry);
  table

let critpath_table ?(title = "critical path vs n") rows =
  let table =
    Table.create ~title
      ~columns:
        [ "n"; "elected_at"; "link"; "proc"; "idle"; "total"; "total/n";
          "hops" ]
  in
  List.iter
    (fun (n, breakdowns) ->
       match breakdowns with
       | [] ->
         Table.add_row table
           (Table.cell_int n :: List.init 7 (fun _ -> "-"))
       | _ ->
         let mean f =
           let sum =
             List.fold_left (fun acc b -> acc +. f b) 0. breakdowns
           in
           sum /. float_of_int (List.length breakdowns)
         in
         let total = mean (fun b -> b.Abe_sim.Critpath.total) in
         Table.add_row table
           [ Table.cell_int n;
             Table.cell_float (mean (fun b -> b.Abe_sim.Critpath.at));
             Table.cell_float (mean (fun b -> b.Abe_sim.Critpath.link));
             Table.cell_float (mean (fun b -> b.Abe_sim.Critpath.proc));
             Table.cell_float (mean (fun b -> b.Abe_sim.Critpath.idle));
             Table.cell_float total;
             Table.cell_float (total /. float_of_int n);
             Table.cell_float ~decimals:1
               (mean (fun b -> float_of_int b.Abe_sim.Critpath.hops)) ])
    rows;
  table

let churn_table ?(title = "election under churn") rows =
  let table =
    Table.create ~title
      ~columns:
        [ "rate"; "reps"; "elected"; "success"; "time"; "link"; "proc";
          "idle"; "total" ]
  in
  List.iter
    (fun (rate, reps, breakdowns) ->
       let elected = List.length breakdowns in
       let success =
         if reps = 0 then 0. else float_of_int elected /. float_of_int reps
       in
       let prefix =
         [ Table.cell_float ~decimals:2 rate;
           Table.cell_int reps;
           Table.cell_int elected;
           Table.cell_float ~decimals:2 success ]
       in
       match breakdowns with
       | [] -> Table.add_row table (prefix @ List.init 5 (fun _ -> "-"))
       | _ ->
         let mean f =
           List.fold_left (fun acc b -> acc +. f b) 0. breakdowns
           /. float_of_int elected
         in
         Table.add_row table
           (prefix
            @ [ Table.cell_float (mean (fun b -> b.Abe_sim.Critpath.at));
                Table.cell_float (mean (fun b -> b.Abe_sim.Critpath.link));
                Table.cell_float (mean (fun b -> b.Abe_sim.Critpath.proc));
                Table.cell_float (mean (fun b -> b.Abe_sim.Critpath.idle));
                Table.cell_float (mean (fun b -> b.Abe_sim.Critpath.total)) ]))
    rows;
  table

let print_scoreboard claims =
  Fmt.pr "@.== Claim scoreboard ==@.";
  List.iter (fun c -> Fmt.pr "%a@." pp_claim c) claims;
  let reproduced =
    List.length (List.filter (fun c -> c.verdict = Reproduced) claims)
  in
  Fmt.pr "@.%d/%d claims reproduced@." reproduced (List.length claims)
