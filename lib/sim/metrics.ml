type counter = { mutable count : int }

type gauge = {
  mutable last : float;
  mutable peak : float;
  mutable set : bool;
}

(* Log-bucketed histogram: positive values fall in bucket
   [growth^i, growth^(i+1)) with growth = 2^(1/8) (8 buckets per octave,
   ~9% relative resolution); zero and negative values share a dedicated
   bucket below every geometric one.  Positive finite doubles span about
   16,800 bucket indices (-8592 .. 8192), of which a run touches a few
   dozen, so the counts are dense over the touched range only:
   [counts.(k)] is bucket [lo + k].  [sum], [min] and [max] sit in a flat
   float array ([stats]) because a mutable float field of a mixed record
   is boxed on every write. *)
type histogram = {
  mutable counts : int array;
  mutable lo : int;
  mutable zero : int;  (* observations <= 0 *)
  mutable total : int;
  stats : float array;  (* [| sum; min; max |] *)
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

(* Indexed histograms named [prefix ^ %04d ^ suffix]: one registration
   covers a whole id range (one latency histogram per link), and the
   member names are formatted only when the registry is listed. *)
type family = {
  prefix : string;
  suffix : string;
  mutable members : histogram array;  (* by index *)
}

type t = {
  metrics : (string, metric) Hashtbl.t;
  mutable families : family list;
}

let create () = { metrics = Hashtbl.create ~random:false 32; families = [] }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let member_name f i = Printf.sprintf "%s%04d%s" f.prefix i f.suffix

(* The index [name] has in family [f] widened to [size] members, if it is
   one of their names. *)
let index_below f ~size name =
  let lp = String.length f.prefix and ls = String.length f.suffix in
  let ln = String.length name in
  if
    ln >= lp + ls + 4
    && String.starts_with ~prefix:f.prefix name
    && String.ends_with ~suffix:f.suffix name
  then
    match int_of_string_opt ("0u" ^ String.sub name lp (ln - lp - ls)) with
    | Some i when i < size && member_name f i = name -> Some i
    | _ -> None
  else None

let member_index f name = index_below f ~size:(Array.length f.members) name

(* A registered metric by name, family members included. *)
let find t name =
  match Hashtbl.find_opt t.metrics name with
  | Some _ as m -> m
  | None ->
    List.find_map
      (fun f ->
         Option.map (fun i -> Histogram f.members.(i)) (member_index f name))
      t.families

let counter t name =
  match find t name with
  | Some (Counter c) -> c
  | Some m ->
    invalid_arg
      (Printf.sprintf "Metrics.counter: %S is already a %s" name (kind_name m))
  | None ->
    let c = { count = 0 } in
    Hashtbl.add t.metrics name (Counter c);
    c

let gauge t name =
  match find t name with
  | Some (Gauge g) -> g
  | Some m ->
    invalid_arg
      (Printf.sprintf "Metrics.gauge: %S is already a %s" name (kind_name m))
  | None ->
    let g = { last = nan; peak = neg_infinity; set = false } in
    Hashtbl.add t.metrics name (Gauge g);
    g

let fresh_histogram () =
  { counts = [||];
    lo = 0;
    zero = 0;
    total = 0;
    stats = [| 0.; infinity; neg_infinity |] }

let histogram t name =
  match find t name with
  | Some (Histogram h) -> h
  | Some m ->
    invalid_arg
      (Printf.sprintf "Metrics.histogram: %S is already a %s" name
         (kind_name m))
  | None ->
    let h = fresh_histogram () in
    Hashtbl.add t.metrics name (Histogram h);
    h

(* Widen [f] to [size] members.  A histogram registered earlier under a
   new member's name becomes that member. *)
let widen t f size =
  let old = Array.length f.members in
  if size > old then begin
    let adopted =
      Hashtbl.fold
        (fun name m acc ->
           match index_below f ~size name, m with
           | Some i, Histogram h when i >= old -> (name, i, h) :: acc
           | Some i, (Counter _ | Gauge _) when i >= old ->
             invalid_arg
               (Printf.sprintf "Metrics.histogram_family: %S is already a %s"
                  name (kind_name m))
           | _ -> acc)
        t.metrics []
    in
    let members =
      Array.init size (fun i ->
          if i < old then f.members.(i) else fresh_histogram ())
    in
    List.iter
      (fun (name, i, h) ->
         Hashtbl.remove t.metrics name;
         members.(i) <- h)
      adopted;
    f.members <- members
  end

let histogram_family t ~prefix ~suffix size =
  if size < 0 then invalid_arg "Metrics.histogram_family: negative size";
  let f =
    match
      List.find_opt (fun f -> f.prefix = prefix && f.suffix = suffix)
        t.families
    with
    | Some f -> f
    | None ->
      let f = { prefix; suffix; members = [||] } in
      t.families <- f :: t.families;
      f
  in
  widen t f size;
  f

let member f i = f.members.(i)

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.incr: negative increment";
  c.count <- c.count + by

let counter_value c = c.count

let set_gauge g x =
  g.last <- x;
  if x > g.peak then g.peak <- x;
  g.set <- true

let gauge_value g = if g.set then Some g.last else None

(* 8 buckets per octave. *)
let inv_log_growth = 8. /. Float.log 2.
let log_growth = Float.log 2. /. 8.

let log_bucket x = int_of_float (Float.floor (Float.log x *. inv_log_growth))

(* Small integers (queue depths, in-flight counts, hop counts) are most of
   what gets observed; their buckets are looked up, not recomputed.  Entry
   [k] is [log_bucket k] (entry 0 is unused). *)
let small_buckets =
  Array.init 4096 (fun k -> if k = 0 then 0 else log_bucket (float_of_int k))

let small_limit = float_of_int (Array.length small_buckets)

let bucket_of x =
  if x < small_limit then begin
    let k = int_of_float x in
    if float_of_int k = x then small_buckets.(k) else log_bucket x
  end
  else log_bucket x

(* Geometric midpoint of bucket [i]: growth^(i + 1/2). *)
let bucket_mid i = Float.exp ((float_of_int i +. 0.5) *. log_growth)

(* Widen [counts] to cover bucket [i], at least doubling so that a run's
   buckets settle after a few widenings. *)
let cover h i =
  let len = Array.length h.counts in
  if len = 0 then begin
    h.counts <- Array.make 16 0;
    h.lo <- i - 8
  end
  else begin
    let lo = Stdlib.min h.lo (i - (len / 2))
    and hi = Stdlib.max (h.lo + len) (i + 1 + (len / 2)) in
    let counts = Array.make (hi - lo) 0 in
    Array.blit h.counts 0 counts (h.lo - lo) len;
    h.counts <- counts;
    h.lo <- lo
  end

let add_count h i c =
  let k = i - h.lo in
  if k >= 0 && k < Array.length h.counts then h.counts.(k) <- h.counts.(k) + c
  else begin
    cover h i;
    let k = i - h.lo in
    h.counts.(k) <- h.counts.(k) + c
  end

(* The count, sum, min and max of a sample already bucketed. *)
let[@inline] tally h x =
  h.total <- h.total + 1;
  let s = h.stats in
  s.(0) <- s.(0) +. x;
  if x < s.(1) then s.(1) <- x;
  if x > s.(2) then s.(2) <- x

let observe h x =
  if not (x < infinity) then
    invalid_arg
      (if Float.is_nan x then "Metrics.observe: NaN observation"
       else "Metrics.observe: infinite observation");
  if x > 0. then add_count h (bucket_of x) 1 else h.zero <- h.zero + 1;
  tally h x

let[@inline] int_bucket k =
  if k < Array.length small_buckets then small_buckets.(k)
  else log_bucket (float_of_int k)

let observe_int h k =
  if k > 0 then add_count h (int_bucket k) 1 else h.zero <- h.zero + 1;
  tally h (float_of_int k)

let observe_int_counts h counts =
  if Array.exists (fun c -> c < 0) counts then
    invalid_arg "Metrics.observe_int_counts: negative count";
  let total = ref 0 and sum = ref 0 and lo = ref (-1) and hi = ref (-1) in
  Array.iteri
    (fun k c ->
       if c > 0 then begin
         if k > 0 then add_count h (int_bucket k) c
         else h.zero <- h.zero + c;
         total := !total + c;
         sum := !sum + (k * c);
         if !lo < 0 then lo := k;
         hi := k
       end)
    counts;
  if !total > 0 then begin
    h.total <- h.total + !total;
    let s = h.stats in
    s.(0) <- s.(0) +. float_of_int !sum;
    let lo = float_of_int !lo and hi = float_of_int !hi in
    if lo < s.(1) then s.(1) <- lo;
    if hi > s.(2) then s.(2) <- hi
  end

let hist_count h = h.total
let hist_sum h = h.stats.(0)
let hist_min h = if h.total = 0 then nan else h.stats.(1)
let hist_max h = if h.total = 0 then nan else h.stats.(2)

let quantile h q =
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Metrics.quantile: q outside [0,1]";
  if h.total = 0 then nan
  else if q = 0. then hist_min h
  else if q = 1. then hist_max h
  else begin
    (* Nearest-rank over the bucketed sample. *)
    let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int h.total))) in
    let estimate =
      if rank <= h.zero then 0.
      else begin
        (* Empty buckets leave [seen] unchanged, so they never match. *)
        let rec walk seen k =
          if k >= Array.length h.counts then hist_max h
            (* numerically unreachable; be safe *)
          else begin
            let seen = seen + h.counts.(k) in
            if rank <= seen then bucket_mid (h.lo + k) else walk seen (k + 1)
          end
        in
        walk h.zero 0
      end
    in
    (* The bucket midpoint can stick out past the exact extrema. *)
    Float.max (hist_min h) (Float.min (hist_max h) estimate)
  end

let merge_histogram ~into:a b =
  Array.iteri (fun k c -> if c > 0 then add_count a (b.lo + k) c) b.counts;
  a.zero <- a.zero + b.zero;
  a.total <- a.total + b.total;
  let sa = a.stats and sb = b.stats in
  sa.(0) <- sa.(0) +. sb.(0);
  if sb.(1) < sa.(1) then sa.(1) <- sb.(1);
  if sb.(2) > sa.(2) then sa.(2) <- sb.(2)

let merge_gauge ~into:a b =
  if b.set then begin
    let peak = Float.max (if a.set then a.peak else neg_infinity) b.peak in
    a.peak <- peak;
    (* A merged registry aggregates replicates: "last" has no meaning, so
       the merged value is the peak, which is order-independent. *)
    a.last <- peak;
    a.set <- true
  end

let copy_metric = function
  | Counter c -> Counter { count = c.count }
  | Gauge g -> Gauge { last = g.last; peak = g.peak; set = g.set }
  | Histogram h ->
    let fresh = fresh_histogram () in
    merge_histogram ~into:fresh h;
    Histogram fresh

let merge_into ~into src =
  Hashtbl.iter
    (fun name m ->
       match find into name, m with
       | None, _ -> Hashtbl.add into.metrics name (copy_metric m)
       | Some (Counter a), Counter b -> a.count <- a.count + b.count
       | Some (Gauge a), Gauge b -> merge_gauge ~into:a b
       | Some (Histogram a), Histogram b -> merge_histogram ~into:a b
       | Some existing, _ ->
         invalid_arg
           (Printf.sprintf "Metrics.merge_into: %S is a %s here but a %s there"
              name (kind_name existing) (kind_name m)))
    src.metrics;
  (* Families merge member by member, like the named histograms they
     stand for. *)
  List.iter
    (fun f ->
       let size = Array.length f.members in
       let g =
         histogram_family into ~prefix:f.prefix ~suffix:f.suffix size
       in
       Array.iteri (fun i h -> merge_histogram ~into:g.members.(i) h)
         f.members)
    src.families

(* Every metric with its name, sorted by name. *)
let entries t =
  let all = Hashtbl.fold (fun name m acc -> (name, m) :: acc) t.metrics [] in
  let all =
    List.fold_left
      (fun acc f ->
         let acc = ref acc in
         Array.iteri
           (fun i h -> acc := (member_name f i, Histogram h) :: !acc)
           f.members;
         !acc)
      all t.families
  in
  List.sort (fun (a, _) (b, _) -> compare a b) all

let report_columns =
  [ "metric"; "kind"; "count"; "value"; "mean"; "p50"; "p90"; "p99"; "max" ]

let cell_float x = if Float.is_nan x then "-" else Printf.sprintf "%g" x

let report_rows t =
  List.map
    (fun (name, m) ->
       match m with
       | Counter c ->
         [ name; "counter"; string_of_int c.count; "-"; "-"; "-"; "-"; "-";
           "-" ]
       | Gauge g ->
         [ name; "gauge"; "-";
           (if g.set then cell_float g.last else "-");
           "-"; "-"; "-"; "-";
           (if g.set then cell_float g.peak else "-") ]
       | Histogram h ->
         let mean =
           if h.total = 0 then nan else hist_sum h /. float_of_int h.total
         in
         [ name; "histogram"; string_of_int h.total; "-"; cell_float mean;
           cell_float (quantile h 0.5);
           cell_float (quantile h 0.9);
           cell_float (quantile h 0.99);
           cell_float (hist_max h) ])
    (entries t)
