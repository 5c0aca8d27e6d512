type report = {
  n : int;
  elections : int;
  concurrency : int;
  seed : int;
  scale : float;
  completed : int;
  failed : int;
  wall_seconds : float;
  elections_per_sec : float;
  lat_mean : float;
  lat_p50 : float;
  lat_p95 : float;
  lat_p99 : float;
  fd_before : int;
  fd_after : int;
}

let percentile sorted q =
  let len = Array.length sorted in
  if len = 0 then nan
  else sorted.(min (len - 1) (int_of_float (q *. float_of_int (len - 1))))

let run ~a0 ~scale ~wall_timeout ?telemetry_out ~n ~elections ~concurrency
    ~seed () =
  if elections < 1 then Error "saturate: elections must be >= 1"
  else if concurrency < 1 || concurrency > 256 then
    Error "saturate: concurrency outside [1,256]"
  else if n * concurrency > 2048 then
    Error
      (Printf.sprintf
         "saturate: %d concurrent clusters of %d nodes need %d worker \
          threads (cap 2048); lower n or concurrency"
         concurrency n (n * concurrency))
  else begin
    match Elect_real.config ~a0 ~scale ~wall_timeout
            ~spawn_mode:Cluster.Threads ~n ()
    with
    | exception Invalid_argument msg -> Error msg
    | config ->
      let fd_of = function Some c -> c | None -> -1 in
      let fd_before = fd_of (Cluster.open_fd_count ()) in
      let results = Array.make elections None in
      let errors = Array.make elections None in
      let next = ref 0 in
      let completed_ct = ref 0 and failed_ct = ref 0 in
      let lock = Mutex.create () in
      let take () =
        Mutex.lock lock;
        let i = !next in
        if i < elections then incr next;
        Mutex.unlock lock;
        if i < elections then Some i else None
      in
      let tally ok =
        Mutex.lock lock;
        if ok then incr completed_ct else incr failed_ct;
        Mutex.unlock lock
      in
      let runner () =
        let continue = ref true in
        while !continue do
          match take () with
          | None -> continue := false
          | Some i -> (
            (* Derived seeds are distinct by construction; Rng.create
               splitmix-expands them, so adjacent seeds share nothing. *)
            match Elect_real.run ~seed:(seed + i) config with
            | Ok o when o.Elect_real.elected ->
              results.(i) <- Some o.Elect_real.wall_time;
              tally true
            | Ok _ ->
              errors.(i) <- Some "timed out";
              tally false
            | Error msg ->
              errors.(i) <- Some msg;
              tally false)
        done
      in
      let t0 = Unix.gettimeofday () in
      (* Live progress stream: one JSONL line every ~250 ms while the
         pool drains, plus a closing line after the join — long
         saturation runs are observable while they execute. *)
      let emit_sample oc =
        let now = Unix.gettimeofday () -. t0 in
        Mutex.lock lock;
        let c = !completed_ct and f = !failed_ct in
        Mutex.unlock lock;
        Printf.fprintf oc
          "{\"t_wall\":%.3f,\"completed\":%d,\"failed\":%d,\"elections_per_sec\":%.3f,\"fd\":%d}\n"
          now c f
          (if now > 0. then float_of_int c /. now else 0.)
          (fd_of (Cluster.open_fd_count ()))
      in
      let sampler_stop = ref false in
      let sampler =
        Option.map
          (fun oc ->
             Thread.create
               (fun () ->
                  while not !sampler_stop do
                    emit_sample oc;
                    Thread.delay 0.25
                  done)
               ())
          telemetry_out
      in
      let pool =
        Array.init (min concurrency elections) (fun _ ->
            Thread.create runner ())
      in
      Array.iter Thread.join pool;
      sampler_stop := true;
      Option.iter Thread.join sampler;
      Option.iter
        (fun oc ->
           emit_sample oc;
           flush oc)
        telemetry_out;
      let wall_seconds = Unix.gettimeofday () -. t0 in
      let fd_after = fd_of (Cluster.open_fd_count ()) in
      let latencies =
        Array.of_seq
          (Seq.filter_map Fun.id (Array.to_seq results))
      in
      Array.sort compare latencies;
      let completed = Array.length latencies in
      let failed = elections - completed in
      let lat_mean =
        if completed = 0 then nan
        else Array.fold_left ( +. ) 0. latencies /. float_of_int completed
      in
      Ok
        { n;
          elections;
          concurrency;
          seed;
          scale;
          completed;
          failed;
          wall_seconds;
          elections_per_sec = float_of_int completed /. wall_seconds;
          lat_mean;
          lat_p50 = percentile latencies 0.50;
          lat_p95 = percentile latencies 0.95;
          lat_p99 = percentile latencies 0.99;
          fd_before;
          fd_after }
  end

let write_json r path =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"abe-real-bench/v1\",\n\
    \  \"n\": %d,\n\
    \  \"elections\": %d,\n\
    \  \"concurrency\": %d,\n\
    \  \"seed\": %d,\n\
    \  \"scale\": %.6f,\n\
    \  \"completed\": %d,\n\
    \  \"failed\": %d,\n\
    \  \"wall_seconds\": %.6f,\n\
    \  \"elections_per_sec\": %.3f,\n\
    \  \"latency_wall_seconds\": {\n\
    \    \"mean\": %.6f,\n\
    \    \"p50\": %.6f,\n\
    \    \"p95\": %.6f,\n\
    \    \"p99\": %.6f\n\
    \  },\n\
    \  \"fd_before\": %d,\n\
    \  \"fd_after\": %d\n\
     }\n"
    r.n r.elections r.concurrency r.seed r.scale r.completed r.failed
    r.wall_seconds r.elections_per_sec r.lat_mean r.lat_p50 r.lat_p95
    r.lat_p99 r.fd_before r.fd_after;
  close_out oc

let pp_summary ppf r =
  Fmt.pf ppf "saturate: n=%d elections=%d concurrency=%d completed=%d \
              failed=%d fd-leaks=%d"
    r.n r.elections r.concurrency r.completed r.failed
    (if r.fd_before < 0 || r.fd_after < 0 then 0 else r.fd_after - r.fd_before)
