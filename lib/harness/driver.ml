type t =
  | Sequential
  | Parallel of { num_domains : int }

let of_jobs jobs =
  if jobs < 1 then invalid_arg "Driver.of_jobs: jobs must be >= 1";
  if jobs = 1 then Sequential else Parallel { num_domains = jobs }

let pp ppf = function
  | Sequential -> Format.pp_print_string ppf "sequential"
  | Parallel { num_domains } ->
    Format.fprintf ppf "parallel(%d domains)" num_domains

(* Chunked fan-out: worker [k] of [d] owns the contiguous index range
   [n*k/d, n*(k+1)/d).  Workers return their chunk; the caller reassembles
   by range, so result order is the input order regardless of which domain
   finishes first.  Joining every worker before re-raising keeps a failing
   [f] from leaking running domains. *)
let map_domains ~num_domains f items =
  let input = Array.of_list items in
  let n = Array.length input in
  let d = min num_domains n in
  if d <= 1 then List.map f items
  else begin
    let chunk k =
      let lo = n * k / d in
      let hi = n * (k + 1) / d in
      Array.init (hi - lo) (fun i -> f input.(lo + i))
    in
    let workers = List.init (d - 1) (fun k -> Domain.spawn (fun () -> chunk (k + 1))) in
    (* The calling domain is the pool's first worker.  Capture failures so
       that every spawned domain is joined before any exception escapes. *)
    let first = match chunk 0 with c -> Ok c | exception e -> Error e in
    let rest =
      List.map
        (fun worker ->
           match Domain.join worker with
           | result -> Ok result
           | exception e -> Error e)
        workers
    in
    let chunks =
      List.map (function Ok c -> c | Error e -> raise e) (first :: rest)
    in
    Array.to_list (Array.concat chunks)
  end

let map driver f items =
  match driver with
  | Sequential -> List.map f items
  | Parallel { num_domains } -> map_domains ~num_domains f items

type timing = {
  driver : t;
  tasks : int;
  elapsed : float;
}

let timed_map driver f items =
  let started = Unix.gettimeofday () in
  let results = map driver f items in
  let elapsed = Unix.gettimeofday () -. started in
  (results, { driver; tasks = List.length items; elapsed })
