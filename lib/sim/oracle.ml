type violation = {
  time : float;
  invariant : string;
  subject : string;
  detail : string;
}

type t = {
  mutable stored : violation list;  (* newest first *)
  mutable total : int;
}

let capacity = 200

let create () = { stored = []; total = 0 }

let report t ~time ~invariant ~subject detail =
  t.total <- t.total + 1;
  if t.total <= capacity then
    t.stored <- { time; invariant; subject; detail } :: t.stored

let reportf t ~time ~invariant ~subject fmt =
  Format.kasprintf (fun detail -> report t ~time ~invariant ~subject detail) fmt

let violations t = List.rev t.stored

let pp_violation ppf v =
  Fmt.pf ppf "violation[%s] t=%.3f %s: %s" v.invariant v.time v.subject v.detail
