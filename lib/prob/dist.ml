type t =
  | Deterministic of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }
  | Erlang of { shape : int; mean : float }
  | Hyperexponential of { branches : (float * float) array }
  | Lomax of { alpha : float; scale : float }
  | Retransmission of { success : float; slot : float }

let positive name x = if not (x > 0. && Float.is_finite x) then
    invalid_arg (Printf.sprintf "Dist.%s: must be positive and finite (got %g)" name x)

let non_negative name x = if not (x >= 0. && Float.is_finite x) then
    invalid_arg (Printf.sprintf "Dist.%s: must be non-negative and finite (got %g)" name x)

let validate = function
  | Deterministic v -> non_negative "deterministic" v
  | Uniform { lo; hi } ->
    non_negative "uniform lo" lo;
    positive "uniform hi" hi;
    if not (lo < hi) then invalid_arg "Dist.uniform: requires lo < hi"
  | Exponential { mean } -> positive "exponential mean" mean
  | Erlang { shape; mean } ->
    if shape < 1 then invalid_arg "Dist.erlang: shape must be >= 1";
    positive "erlang mean" mean
  | Hyperexponential { branches } ->
    if Array.length branches = 0 then invalid_arg "Dist.hyperexponential: no branches";
    let total = Array.fold_left (fun acc (w, m) ->
        positive "hyperexponential weight" w;
        positive "hyperexponential branch mean" m;
        acc +. w)
        0. branches
    in
    if Float.abs (total -. 1.) > 1e-9 then
      invalid_arg "Dist.hyperexponential: weights must sum to 1"
  | Lomax { alpha; scale } ->
    positive "lomax scale" scale;
    if not (alpha > 1.) then invalid_arg "Dist.lomax: alpha must be > 1 for a finite mean"
  | Retransmission { success; slot } ->
    positive "retransmission slot" slot;
    if not (success > 0. && success <= 1.) then
      invalid_arg "Dist.retransmission: success probability outside (0,1]"

let checked d = validate d; d

let deterministic v = checked (Deterministic v)
let uniform ~lo ~hi = checked (Uniform { lo; hi })
let exponential ~mean = checked (Exponential { mean })
let erlang ~shape ~mean = checked (Erlang { shape; mean })

let hyperexponential_cv2 ~mean ~cv2 =
  positive "hyperexponential mean" mean;
  if cv2 < 1. then invalid_arg "Dist.hyperexponential_cv2: cv2 must be >= 1";
  if cv2 = 1. then Exponential { mean }
  else begin
    (* Balanced-means two-branch H2 fit: p1 m1 = p2 m2 = mean / 2. *)
    let p1 = 0.5 *. (1. +. sqrt ((cv2 -. 1.) /. (cv2 +. 1.))) in
    let p2 = 1. -. p1 in
    let m1 = mean /. (2. *. p1) and m2 = mean /. (2. *. p2) in
    checked (Hyperexponential { branches = [| (p1, m1); (p2, m2) |] })
  end

let lomax ~alpha ~mean =
  positive "lomax mean" mean;
  if not (alpha > 1.) then invalid_arg "Dist.lomax: alpha must be > 1";
  checked (Lomax { alpha; scale = mean *. (alpha -. 1.) })

let retransmission ~success ~slot = checked (Retransmission { success; slot })

let sample d rng =
  match d with
  | Deterministic v -> v
  | Uniform { lo; hi } -> Rng.float_range rng ~lo ~hi
  | Exponential { mean } -> Rng.exponential rng ~mean
  | Erlang { shape; mean } ->
    let stage_mean = mean /. float_of_int shape in
    let rec add acc k =
      if k = 0 then acc else add (acc +. Rng.exponential rng ~mean:stage_mean) (k - 1)
    in
    add 0. shape
  | Hyperexponential { branches } ->
    let u = Rng.unit_float rng in
    let rec pick i acc =
      if i = Array.length branches - 1 then snd branches.(i)
      else
        let w, m = branches.(i) in
        if u < acc +. w then m else pick (i + 1) (acc +. w)
    in
    Rng.exponential rng ~mean:(pick 0 0.)
  | Lomax { alpha; scale } ->
    let u = 1. -. Rng.unit_float rng in
    scale *. ((u ** (-1. /. alpha)) -. 1.)
  | Retransmission { success; slot } ->
    slot *. float_of_int (Rng.geometric rng ~p:success)

(* The exponential, the ABE delay of every simulated workload, reaches
   [dst] without a boxed float; any other law goes through [sample]. *)
let sample_into d rng dst i =
  match d with
  | Exponential { mean } -> Rng.exponential_into rng ~mean dst i
  | Deterministic _ | Uniform _ | Erlang _ | Hyperexponential _ | Lomax _
  | Retransmission _ ->
    dst.(i) <- sample d rng

let mean = function
  | Deterministic v -> v
  | Uniform { lo; hi } -> 0.5 *. (lo +. hi)
  | Exponential { mean } -> mean
  | Erlang { mean; _ } -> mean
  | Hyperexponential { branches } ->
    Array.fold_left (fun acc (w, m) -> acc +. (w *. m)) 0. branches
  | Lomax { alpha; scale } -> scale /. (alpha -. 1.)
  | Retransmission { success; slot } -> slot /. success

(* Second raw moment, used for variances of compound distributions. *)
let second_moment = function
  | Deterministic v -> Some (v *. v)
  | Uniform { lo; hi } -> Some (((lo *. lo) +. (lo *. hi) +. (hi *. hi)) /. 3.)
  | Exponential { mean } -> Some (2. *. mean *. mean)
  | Erlang { shape; mean } ->
    let k = float_of_int shape in
    let var = mean *. mean /. k in
    Some (var +. (mean *. mean))
  | Hyperexponential { branches } ->
    Some (Array.fold_left (fun acc (w, m) -> acc +. (w *. 2. *. m *. m)) 0. branches)
  | Lomax { alpha; scale } ->
    if alpha > 2. then
      Some (2. *. scale *. scale /. ((alpha -. 1.) *. (alpha -. 2.)))
    else None
  | Retransmission { success; slot } ->
    (* trials ~ Geometric(p): E[T] = 1/p, Var[T] = (1-p)/p². *)
    let p = success in
    let et = 1. /. p in
    let vart = (1. -. p) /. (p *. p) in
    Some (slot *. slot *. (vart +. (et *. et)))

let variance d =
  match second_moment d with
  | None -> None
  | Some m2 ->
    let m = mean d in
    Some (Float.max 0. (m2 -. (m *. m)))

let cv2 d =
  match variance d with
  | None -> None
  | Some v ->
    let m = mean d in
    if m = 0. then None else Some (v /. (m *. m))

(* Closed-form CDFs where they exist. *)
let rec cdf d x =
  if x < 0. then Some 0.
  else
    match d with
    | Deterministic v -> Some (if x >= v then 1. else 0.)
    | Uniform { lo; hi } ->
      Some (if x <= lo then 0. else if x >= hi then 1. else (x -. lo) /. (hi -. lo))
    | Exponential { mean } -> Some (1. -. exp (-.x /. mean))
    | Erlang { shape; mean } ->
      if shape = 1 then cdf (Exponential { mean }) x else None
    | Hyperexponential { branches } ->
      Some
        (Array.fold_left
           (fun acc (w, m) -> acc +. (w *. (1. -. exp (-.x /. m))))
           0. branches)
    | Lomax { alpha; scale } ->
      Some (1. -. ((1. +. (x /. scale)) ** -.alpha))
    | Retransmission { success; slot } ->
      (* Delay = slot * Geometric(p): a step function. *)
      let trials = Float.to_int (Float.floor (x /. slot)) in
      Some (1. -. ((1. -. success) ** float_of_int trials))

let support_upper_bound = function
  | Deterministic v -> Some v
  | Uniform { hi; _ } -> Some hi
  | Exponential _ | Erlang _ | Hyperexponential _ | Lomax _ | Retransmission _ -> None

let bounded_support d = Option.is_some (support_upper_bound d)

let same_mean_family ~mean:m =
  [ ("deterministic", deterministic m);
    ("uniform", uniform ~lo:0. ~hi:(2. *. m));
    ("erlang-4", erlang ~shape:4 ~mean:m);
    ("exponential", exponential ~mean:m);
    ("hyperexp-cv2=4", hyperexponential_cv2 ~mean:m ~cv2:4.);
    ("lomax-2.5", lomax ~alpha:2.5 ~mean:m);
    ("retransmission-p=0.25", retransmission ~success:0.25 ~slot:(m *. 0.25)) ]

let pp ppf = function
  | Deterministic v -> Fmt.pf ppf "det(%g)" v
  | Uniform { lo; hi } -> Fmt.pf ppf "unif[%g,%g]" lo hi
  | Exponential { mean } -> Fmt.pf ppf "exp(mean=%g)" mean
  | Erlang { shape; mean } -> Fmt.pf ppf "erlang(k=%d,mean=%g)" shape mean
  | Hyperexponential { branches } ->
    Fmt.pf ppf "hyperexp(%a)"
      Fmt.(array ~sep:comma (pair ~sep:(any ":") float float))
      branches
  | Lomax { alpha; scale } -> Fmt.pf ppf "lomax(alpha=%g,scale=%g)" alpha scale
  | Retransmission { success; slot } -> Fmt.pf ppf "retx(p=%g,slot=%g)" success slot
