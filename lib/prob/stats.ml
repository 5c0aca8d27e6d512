type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;  (* sum of squared deviations from the running mean *)
  mutable min : float;
  mutable max : float;
}

let create () =
  { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let mean t = if t.n = 0 then nan else t.mean
let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)

let std_error t =
  if t.n = 0 then nan else stddev t /. sqrt (float_of_int t.n)

(* Two-sided 95% Student-t critical values, indexed by degrees of freedom.
   Linear interpolation between table rows; converges to the normal 1.96. *)
let t_table =
  [| (1, 12.706); (2, 4.303); (3, 3.182); (4, 2.776); (5, 2.571);
     (6, 2.447); (7, 2.365); (8, 2.306); (9, 2.262); (10, 2.228);
     (12, 2.179); (15, 2.131); (20, 2.086); (25, 2.060); (30, 2.042);
     (40, 2.021); (60, 2.000); (120, 1.980) |]

let t_critical_95 df =
  if df <= 0 then invalid_arg "Stats.t_critical_95: df must be positive";
  let last = Array.length t_table - 1 in
  let df_last, v_last = t_table.(last) in
  if df >= df_last then
    (* Beyond the table, interpolate in 1/df toward the normal limit
       1.96: exact at the last row, monotone decreasing, asymptotically
       1.96.  (Jumping straight to 1.96 made the critical value — and
       hence [ci95_half_width] — drop discontinuously between df = 120
       and df = 121, so an adaptive stopping rule could become *easier*
       to satisfy by adding one sample.) *)
    1.96 +. ((v_last -. 1.96) *. float_of_int df_last /. float_of_int df)
  else begin
    let rec search i =
      let df_hi, v_hi = t_table.(i) in
      if df <= df_hi then
        if i = 0 || df = df_hi then v_hi
        else
          let df_lo, v_lo = t_table.(i - 1) in
          let frac = float_of_int (df - df_lo) /. float_of_int (df_hi - df_lo) in
          v_lo +. (frac *. (v_hi -. v_lo))
      else search (i + 1)
    in
    search 0
  end

let ci95_half_width t =
  if t.n < 2 then infinity
  else t_critical_95 (t.n - 1) *. std_error t

type summary = {
  n : int;
  mean : float;
  stddev : float;
  std_error : float;
  ci95_half_width : float;
  min : float;
  max : float;
}

let summary (t : t) : summary =
  { n = t.n;
    mean = mean t;
    stddev = stddev t;
    std_error = std_error t;
    ci95_half_width = ci95_half_width t;
    min = t.min;
    max = t.max }

let pp_summary ppf s =
  Fmt.pf ppf "n=%d mean=%.4g ±%.3g (sd=%.3g, min=%.4g, max=%.4g)"
    s.n s.mean s.ci95_half_width s.stddev s.min s.max

let create_moments = create

module Reservoir = struct
  type r = {
    stats : t;
    mutable data : float array;
    mutable len : int;
  }

  let create () = { stats = create_moments (); data = Array.make 16 0.; len = 0 }

  let add r x =
    add r.stats x;
    if r.len = Array.length r.data then begin
      let bigger = Array.make (2 * r.len) 0. in
      Array.blit r.data 0 bigger 0 r.len;
      r.data <- bigger
    end;
    r.data.(r.len) <- x;
    r.len <- r.len + 1

  let mean r = mean r.stats

  let samples r = Array.sub r.data 0 r.len

  let quantile r q =
    if not (q >= 0. && q <= 1.) then invalid_arg "Reservoir.quantile: q outside [0,1]";
    if r.len = 0 then nan
    else begin
      let sorted = samples r in
      Array.sort Float.compare sorted;
      let pos = q *. float_of_int (r.len - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = int_of_float (Float.ceil pos) in
      if lo = hi then sorted.(lo)
      else
        let frac = pos -. float_of_int lo in
        sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
    end

  let median r = quantile r 0.5
end

module Histogram = struct
  type h = {
    lo : float;
    hi : float;
    width : float;
    counts : int array;
    mutable underflow : int;
    mutable overflow : int;
  }

  let create ~lo ~hi ~bins =
    if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
    if not (lo < hi) then invalid_arg "Histogram.create: requires lo < hi";
    { lo;
      hi;
      width = (hi -. lo) /. float_of_int bins;
      counts = Array.make bins 0;
      underflow = 0;
      overflow = 0 }

  let add h x =
    if x < h.lo then h.underflow <- h.underflow + 1
    else if x >= h.hi then h.overflow <- h.overflow + 1
    else begin
      let bin = int_of_float ((x -. h.lo) /. h.width) in
      let bin = min bin (Array.length h.counts - 1) in
      h.counts.(bin) <- h.counts.(bin) + 1
    end

  let counts h = Array.copy h.counts

  let bin_bounds h i =
    if i < 0 || i >= Array.length h.counts then
      invalid_arg "Histogram.bin_bounds: bin out of range";
    (h.lo +. (float_of_int i *. h.width), h.lo +. (float_of_int (i + 1) *. h.width))

  let pp ppf h =
    let peak = Array.fold_left max 1 h.counts in
    Array.iteri
      (fun i c ->
         let lo, hi = bin_bounds h i in
         let bar = String.make (40 * c / peak) '#' in
         Fmt.pf ppf "[%8.3g, %8.3g) %6d %s@." lo hi c bar)
      h.counts;
    if h.underflow > 0 then Fmt.pf ppf "underflow: %d@." h.underflow;
    if h.overflow > 0 then Fmt.pf ppf "overflow: %d@." h.overflow
end
