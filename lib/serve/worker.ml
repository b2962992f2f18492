(* The forked worker pool: pipeline execution isolated from the accept
   loop.

   Each worker is a forked child holding its own [Server.t] (caches and
   all) and speaking the wire protocol over a socketpair: the daemon
   writes one request frame, the worker answers one response frame.  A
   worker that crashes (a pass bug, an OOM kill, an injected fault)
   costs exactly the request it was carrying — the daemon sees EOF on
   the socketpair, reports [Crashed], and respawns the slot with a
   bumped generation.  A worker that blows far past a request's hard
   deadline is SIGKILLed and respawned likewise ([Hard_timeout]); the
   in-process soft deadline inside [Server.handle] normally answers
   [Timed_out] well before that, so hard kills are the backstop, not
   the norm.

   Requests carry a [route] affinity hint (content digest, library-set
   digest): requests sharing a route go to the same slot, so per-worker
   caches still get their hits and link-time IPO runs once per library
   set inside that worker. *)

type worker = {
  w_slot : int;
  mutable w_pid : int;
  mutable w_fd : Unix.file_descr; (* daemon's end of the socketpair *)
  mutable w_generation : int;
}

type t = {
  p_config : Server.config;
  p_faults : Faults.plan option;
  p_on_child : unit -> unit;
  p_workers : worker array;
  mutable p_restarts : int;
  mutable p_rr : int; (* round-robin cursor for unrouted requests *)
}

type outcome =
  | Resp of Protocol.response
  | Crashed
  | Hard_timeout

(* -- Child side ---------------------------------------------------------------- *)

let child_main ~(slot : int) ~(generation : int)
    (faults : Faults.plan option) (config : Server.config)
    (fd : Unix.file_descr) : 'a =
  (* the child inherited the daemon's signal dispositions; it should
     die on SIGTERM and survive a peer closing mid-write *)
  Sys.set_signal Sys.sigterm Sys.Signal_default;
  Sys.set_signal Sys.sigint Sys.Signal_default;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (match faults with Some p -> Faults.install p | None -> Faults.clear ());
  Faults.arm_crashes ~slot ~generation;
  let server = Server.create ~config () in
  let rec loop () =
    match Protocol.read_frame fd with
    | None | (exception _) -> Unix._exit 0 (* daemon closed our pipe *)
    | Some frame ->
      let resp =
        match Protocol.decode_request frame with
        | Error e -> Protocol.Failed ("bad request: " ^ e)
        | Ok req -> Server.handle server req
      in
      (match Protocol.write_frame fd (Protocol.encode_response resp) with
      | () -> ()
      | exception _ -> Unix._exit 0);
      loop ()
  in
  loop ()

(* -- Supervision --------------------------------------------------------------- *)

let spawn (t : t) (slot : int) (generation : int) : worker =
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    Unix.close ours;
    t.p_on_child ();
    child_main ~slot ~generation t.p_faults t.p_config theirs
  | pid ->
    Unix.close theirs;
    { w_slot = slot; w_pid = pid; w_fd = ours; w_generation = generation }

let create ?(n = 2) ?faults ?(on_child = fun () -> ())
    (config : Server.config) : t =
  let n = max 1 n in
  let t =
    { p_config = config; p_faults = faults; p_on_child = on_child;
      p_workers = [||]; p_restarts = 0; p_rr = 0 }
  in
  let t = { t with p_workers = Array.init n (fun slot -> spawn t slot 0) } in
  t

let size (t : t) : int = Array.length t.p_workers
let restarts (t : t) : int = t.p_restarts

let reap (pid : int) : unit =
  (* non-blocking first — the child usually died already; fall back to
     a blocking wait so we never leak a zombie *)
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> ( try ignore (Unix.waitpid [] pid) with _ -> ())
  | _ -> ()
  | exception _ -> ()

let respawn (t : t) (w : worker) : unit =
  (try Unix.close w.w_fd with _ -> ());
  reap w.w_pid;
  t.p_restarts <- t.p_restarts + 1;
  let fresh = spawn t w.w_slot (w.w_generation + 1) in
  w.w_pid <- fresh.w_pid;
  w.w_fd <- fresh.w_fd;
  w.w_generation <- fresh.w_generation

let kill_and_respawn (t : t) (w : worker) : unit =
  (try Unix.kill w.w_pid Sys.sigkill with _ -> ());
  respawn t w

(* Affinity: same route, same slot.  [Hashtbl.hash] is stable for the
   lifetime of this daemon process, which is all affinity needs. *)
let slot_for (t : t) (route : string option) : int =
  match route with
  | Some r -> Hashtbl.hash r mod Array.length t.p_workers
  | None ->
    t.p_rr <- t.p_rr + 1;
    t.p_rr mod Array.length t.p_workers

(* -- Dispatch ------------------------------------------------------------------- *)

(* [hard] is an absolute instant on [Protocol.now]: a worker that has not
   answered by then is killed.  It should sit a grace interval past the
   request's own deadline so the worker's cooperative [Timed_out]
   answer wins whenever it can. *)
let dispatch (t : t) ?hard ~(route : string option)
    (req : Protocol.request) : outcome =
  let w = t.p_workers.(slot_for t route) in
  let frame = Protocol.encode_request req in
  let sent =
    match Protocol.write_frame w.w_fd frame with
    | () -> true
    | exception _ ->
      (* stale pipe from an earlier death we haven't noticed: recycle
         the slot and try once more on the fresh worker *)
      respawn t w;
      (match Protocol.write_frame w.w_fd frame with
      | () -> true
      | exception _ -> false)
  in
  if not sent then Crashed
  else begin
    let budget =
      match hard with
      | Some until -> Float.max 0.001 (until -. Protocol.now ())
      | None -> infinity
    in
    match Protocol.read_frame_within ~idle:budget ~deadline:budget w.w_fd with
    | Protocol.Frame s -> (
      match Protocol.decode_response s with
      | Ok resp -> Resp resp
      | Error e ->
        respawn t w;
        Resp (Protocol.Failed ("worker sent an undecodable response: " ^ e)))
    | Protocol.Eof | (exception Protocol.Oversized_frame _) ->
      respawn t w;
      Crashed
    | Protocol.Idle | Protocol.Stalled ->
      kill_and_respawn t w;
      Hard_timeout
  end

let shutdown (t : t) : unit =
  Array.iter
    (fun w ->
      (try Unix.close w.w_fd with _ -> ());
      (try Unix.kill w.w_pid Sys.sigterm with _ -> ());
      reap w.w_pid)
    t.p_workers
