type line = {
  intercept : float;
  slope : float;
  r2 : float;
}

let check_points points min_points name =
  if Array.length points < min_points then
    invalid_arg (Printf.sprintf "Fit.%s: needs at least %d points" name min_points)

let sum f points = Array.fold_left (fun acc p -> acc +. f p) 0. points

let r2_of ~points ~predict =
  let n = float_of_int (Array.length points) in
  let mean_y = sum snd points /. n in
  let ss_tot = sum (fun (_, y) -> (y -. mean_y) ** 2.) points in
  let ss_res = sum (fun (x, y) -> (y -. predict x) ** 2.) points in
  if ss_tot = 0. then (if ss_res = 0. then 1. else 0.) else 1. -. (ss_res /. ss_tot)

let linear points =
  check_points points 2 "linear";
  let n = float_of_int (Array.length points) in
  let sx = sum fst points and sy = sum snd points in
  let sxx = sum (fun (x, _) -> x *. x) points in
  let sxy = sum (fun (x, y) -> x *. y) points in
  let denom = (n *. sxx) -. (sx *. sx) in
  if Float.abs denom < 1e-12 then invalid_arg "Fit.linear: all x identical";
  let slope = ((n *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. n in
  let r2 = r2_of ~points ~predict:(fun x -> intercept +. (slope *. x)) in
  { intercept; slope; r2 }

let proportional points =
  check_points points 1 "proportional";
  let sxx = sum (fun (x, _) -> x *. x) points in
  let sxy = sum (fun (x, y) -> x *. y) points in
  if sxx = 0. then invalid_arg "Fit.proportional: all x zero";
  let slope = sxy /. sxx in
  let r2 = r2_of ~points ~predict:(fun x -> slope *. x) in
  { intercept = 0.; slope; r2 }

let loglog points =
  check_points points 2 "loglog";
  Array.iter
    (fun (x, y) ->
       if not (x > 0. && y > 0.) then
         invalid_arg "Fit.loglog: requires positive coordinates")
    points;
  linear (Array.map (fun (x, y) -> (log x, log y)) points)

type growth = Constant | Logarithmic | Linear | Linearithmic | Quadratic

let pp_growth ppf g =
  Format.pp_print_string ppf
    (match g with
     | Constant -> "O(1)"
     | Logarithmic -> "O(log n)"
     | Linear -> "O(n)"
     | Linearithmic -> "O(n log n)"
     | Quadratic -> "O(n^2)")

let transform = function
  | Constant -> fun _ -> 1.
  | Logarithmic -> log
  | Linear -> fun x -> x
  | Linearithmic -> fun x -> x *. log x
  | Quadratic -> fun x -> x *. x

let residual_rss points model =
  check_points points 2 "residual_rss";
  Array.iter
    (fun (x, _) ->
       if x < 2. then invalid_arg "Fit.residual_rss: points must have x >= 2")
    points;
  let f = transform model in
  let transformed = Array.map (fun (x, y) -> (f x, y)) points in
  (* Fit with an intercept: y = a + b * f(x).  For Constant the transformed
     abscissa is degenerate, so fall back to the mean. *)
  match model with
  | Constant ->
    let n = float_of_int (Array.length points) in
    let mean_y = sum snd points /. n in
    sum (fun (_, y) -> (y -. mean_y) ** 2.) points
  | _ ->
    let { intercept; slope; _ } = linear transformed in
    sum (fun (fx, y) -> (y -. (intercept +. (slope *. fx))) ** 2.) transformed

let classify_growth points =
  check_points points 3 "classify_growth";
  let models = [ Constant; Logarithmic; Linear; Linearithmic; Quadratic ] in
  let scored = List.map (fun m -> (m, residual_rss points m)) models in
  let best =
    List.fold_left
      (fun (bm, br) (m, r) -> if r < br then (m, r) else (bm, br))
      (List.hd scored |> fst, List.hd scored |> snd)
      (List.tl scored)
  in
  fst best
