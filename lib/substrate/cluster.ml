type spawn_mode = Domains | Threads

(* The OCaml 5 runtime tops out around 128 live domains; a cluster needs
   one per node plus the caller's.  Threads are cheaper but each worker
   still costs a stack and two fds, so cap those too. *)
let max_domain_workers = 64
let max_thread_workers = 512

let open_fd_count () =
  match Sys.readdir "/proc/self/fd" with
  | entries ->
    (* The readdir itself holds one fd open; don't count it. *)
    Some (Array.length entries - 1)
  | exception Sys_error _ -> None

let check_cap mode n =
  match mode with
  | Domains when n > max_domain_workers ->
    Error
      (Printf.sprintf
         "cluster: %d nodes exceed the %d-domain worker cap (use the \
          thread spawn mode for larger clusters)"
         n max_domain_workers)
  | Threads when n > max_thread_workers ->
    Error
      (Printf.sprintf "cluster: %d nodes exceed the %d-thread worker cap" n
         max_thread_workers)
  | Domains | Threads -> Ok ()

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let write_all fd b =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd b !off (len - !off) with
    | k -> off := !off + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

type handle = D of unit Domain.t | T of Thread.t

type t = {
  pairs : (Unix.file_descr * Unix.file_descr) array;
  handles : handle option array;
}

let socketpairs n =
  (* Broadcasting Shutdown into a closed worker end must not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let acc = ref [] in
  try
    for _ = 1 to n do
      acc := Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 :: !acc
    done;
    Ok { pairs = Array.of_list (List.rev !acc); handles = Array.make n None }
  with Unix.Unix_error (e, _, _) ->
    List.iter
      (fun (a, b) ->
         close_quiet a;
         close_quiet b)
      !acc;
    Error ("cluster: cannot create socketpairs: " ^ Unix.error_message e)

let worker_fd t i = fst t.pairs.(i)
let router_fd t i = snd t.pairs.(i)

let broadcast_shutdown t =
  let b = Wire.encode Wire.Shutdown in
  Array.iter
    (fun (_, fd) -> try write_all fd b with Unix.Unix_error _ -> ())
    t.pairs

(* Workers exit on Shutdown; joining them here is what makes the no-leak
   guarantee hold on every path. *)
let join t =
  Array.iter
    (Option.iter (function D d -> Domain.join d | T th -> Thread.join th))
    t.handles;
  Array.iter
    (fun (a, b) ->
       close_quiet a;
       close_quiet b)
    t.pairs

let spawn mode t body =
  match
    for id = 0 to Array.length t.pairs - 1 do
      let body () = body id in
      t.handles.(id) <-
        Some
          (match mode with
           | Domains -> D (Domain.spawn body)
           | Threads -> T (Thread.create body ()))
    done
  with
  | () -> Ok ()
  | exception e ->
    (* Some workers may already be live: unwind them before reporting. *)
    broadcast_shutdown t;
    join t;
    Error
      (Printf.sprintf "cluster: cannot spawn %s worker: %s"
         (match mode with Domains -> "domain" | Threads -> "thread")
         (Printexc.to_string e))
