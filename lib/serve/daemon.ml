(* llvmd's socket loop: a single-threaded, fault-tolerant Unix-domain
   socket daemon over Server + Worker.

   Connections are handled one at a time; within a connection the
   daemon drains every frame already queued on the socket (bounded by
   [max_batch]) before answering.  Responses keep request order, so
   pipelined clients can match them up by position.

   Fault tolerance, in layers:

   - Framing deadlines.  Every read runs through
     [Protocol.read_frame_within]: a client that sends a partial frame
     and stalls costs the daemon at most [frame_deadline_ms] (it is
     answered [Timed_out] and dropped), and an idle connection at most
     [idle_timeout_ms].  This fixes the documented stall bug of the
     blocking drain.

   - Request deadlines.  Requests carry (or inherit from
     [deadline_ms]) a wall-clock budget; [Server.handle] answers
     [Timed_out] cooperatively at pass boundaries, and with workers
     the daemon additionally hard-kills a worker that blows a grace
     interval past the budget.

   - Worker isolation.  With [workers > 0], pipelines run in forked
     children ([Worker]); a crash yields [Failed] for the one request
     being carried and a respawned worker, never a dead daemon.  The
     daemon keeps a "front" [Server.t] whose cache spans workers: it
     probes before dispatching and installs results after, so cache
     hits cost no fork round-trip and survive worker deaths.

   - Overload shedding.  At most [max_queue] work requests per drained
     batch are admitted; the rest are answered [Busy] with a retry
     hint.  Clients use [request_with_retry] (exponential backoff with
     jitter) to come back.

   - Circuit breaker.  Infrastructure failures (crashes, hard
     timeouts, deadline expiries) over a sliding window trip the
     daemon into degraded mode: cache hits are still served from the
     front cache, everything else is [Busy] until a cooldown passes
     and a half-open trial succeeds.

   - Graceful shutdown.  SIGINT/SIGTERM finish the in-flight batch,
     answer what is queued, tear down workers, and unlink the socket;
     binding refuses to clobber a socket another live daemon answers
     on ([Busy_socket]) and only unlinks genuinely stale files. *)

let default_socket = "llvmd.sock"

(* -- Client side -------------------------------------------------------------- *)

type error =
  | Closed  (** the daemon closed the stream (EOF mid-conversation) *)
  | Unframeable of int
      (** the daemon announced a frame beyond [max_frame]: the stream
          cannot be re-synchronized and has been closed *)
  | Bad_frame of string  (** a response frame failed to decode *)
  | Io of string  (** connect/read/write failure *)

let error_to_string = function
  | Closed -> "connection closed by daemon"
  | Unframeable n ->
    Printf.sprintf "daemon sent an oversized frame (%d bytes, limit %d)" n
      Protocol.max_frame
  | Bad_frame e -> "undecodable response: " ^ e
  | Io e -> e

let connect ~(socket : string) : Unix.file_descr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     Unix.close fd;
     raise e);
  fd

let close (fd : Unix.file_descr) : unit = try Unix.close fd with _ -> ()

let send (fd : Unix.file_descr) (req : Protocol.request) : unit =
  Protocol.write_frame fd (Protocol.encode_request req)

let receive (fd : Unix.file_descr) : (Protocol.response, error) result =
  match Protocol.read_frame fd with
  | None -> Error Closed
  | Some frame -> (
    match Protocol.decode_response frame with
    | Ok resp -> Ok resp
    | Error e -> Error (Bad_frame e))
  | exception Protocol.Oversized_frame n ->
    (* past a bad header the stream can never be framed again: close
       now so a later [request] on this fd cannot read garbage *)
    close fd;
    Error (Unframeable n)
  | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))

let request (fd : Unix.file_descr) (req : Protocol.request) :
    (Protocol.response, error) result =
  match send fd req with
  | () -> receive fd
  | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))

(* One request on a fresh connection, retrying [Busy] answers and
   transport failures with exponential backoff and jitter.  The jitter
   draws from a seeded Rng so a fleet of retrying clients spreads out
   instead of stampeding in lockstep — and so tests replay. *)
let request_with_retry ?(attempts = 4) ?(base_delay_ms = 25) ?(seed = 1)
    ~(socket : string) (req : Protocol.request) :
    (Protocol.response, error) result =
  let rng = Llvm_workloads.Rng.create (seed lxor 0x7e7721) in
  let delay_ms hint i =
    let base = match hint with Some ms when ms > 0 -> ms | _ -> base_delay_ms in
    let spread = 0.5 +. (float_of_int (Llvm_workloads.Rng.int rng 1000) /. 1000.0) in
    float_of_int (base * (1 lsl i)) *. spread
  in
  let attempt () =
    match connect ~socket with
    | exception Unix.Unix_error (e, _, _) ->
      Error (Io (Unix.error_message e))
    | fd ->
      let r = request fd req in
      close fd;
      r
  in
  let rec go i =
    match attempt () with
    | Ok (Protocol.Busy { retry_after_ms }) when i + 1 < attempts ->
      Unix.sleepf (delay_ms (Some retry_after_ms) i /. 1000.0);
      go (i + 1)
    | Error (Closed | Io _ | Unframeable _) when i + 1 < attempts ->
      Unix.sleepf (delay_ms None i /. 1000.0);
      go (i + 1)
    | r -> r
  in
  go 0

(* -- Daemon configuration ------------------------------------------------------ *)

type config = {
  max_batch : int;  (* frames drained per batch *)
  max_queue : int;  (* work requests admitted per batch; rest shed *)
  deadline_ms : int;  (* default per-request budget; 0 = none *)
  frame_deadline_ms : int;  (* budget for completing a started frame *)
  idle_timeout_ms : int;  (* budget for an idle connection *)
  workers : int;  (* forked workers; 0 = run pipelines in-process *)
  retry_after_ms : int;  (* hint carried by Busy responses *)
  breaker_window : int;  (* sliding window of worker-path outcomes *)
  breaker_min : int;  (* min outcomes in window before tripping *)
  breaker_ratio : float;  (* failure ratio that trips the breaker *)
  breaker_cooldown_ms : int;  (* degraded-mode dwell before a retrial *)
}

let default_config =
  { max_batch = 64; max_queue = 64; deadline_ms = 0;
    frame_deadline_ms = 2000; idle_timeout_ms = 30_000; workers = 0;
    retry_after_ms = 50; breaker_window = 32; breaker_min = 8;
    breaker_ratio = 0.5; breaker_cooldown_ms = 1000 }

(* -- Circuit breaker ----------------------------------------------------------- *)

type breaker_state = Closed | Open of float (* until *) | Half_open

type breaker = {
  b_window : int;
  b_min : int;
  b_ratio : float;
  b_cooldown : float;
  b_results : bool Queue.t; (* sliding window; [true] = failure *)
  mutable b_fails : int;
  mutable b_state : breaker_state;
}

let breaker_of (cfg : config) : breaker =
  { b_window = max 1 cfg.breaker_window; b_min = max 1 cfg.breaker_min;
    b_ratio = cfg.breaker_ratio;
    b_cooldown = float_of_int cfg.breaker_cooldown_ms /. 1000.0;
    b_results = Queue.create (); b_fails = 0; b_state = Closed }

let breaker_record (b : breaker) ~(failed : bool) : unit =
  Queue.push failed b.b_results;
  if failed then b.b_fails <- b.b_fails + 1;
  if Queue.length b.b_results > b.b_window then
    if Queue.pop b.b_results then b.b_fails <- b.b_fails - 1;
  (match b.b_state with
  | Half_open ->
    if failed then b.b_state <- Open (Protocol.now () +. b.b_cooldown)
    else begin
      (* trial succeeded: close and forget the bad window *)
      b.b_state <- Closed;
      Queue.clear b.b_results;
      b.b_fails <- 0
    end
  | Closed ->
    if
      Queue.length b.b_results >= b.b_min
      && float_of_int b.b_fails
         >= b.b_ratio *. float_of_int (Queue.length b.b_results)
    then b.b_state <- Open (Protocol.now () +. b.b_cooldown)
  | Open _ -> ())

(* What the breaker allows right now: [`Normal] service, a single
   [`Trial] request after the cooldown, or [`Degraded] (cache hits
   only). *)
let breaker_gate (b : breaker) : [ `Normal | `Trial | `Degraded ] =
  match b.b_state with
  | Closed -> `Normal
  | Half_open -> `Trial (* single-threaded: at most one trial in flight *)
  | Open until ->
    if Protocol.now () >= until then begin
      b.b_state <- Half_open;
      `Trial
    end
    else `Degraded

let breaker_state_name (b : breaker) : string =
  match b.b_state with
  | Closed -> "closed"
  | Open _ -> "open"
  | Half_open -> "half_open"

(* -- Daemon state -------------------------------------------------------------- *)

type state = {
  cfg : config;
  front : Server.t;
  pool : Worker.t option;
  brk : breaker;
  mutable shed : int;
  mutable hard_timeouts : int;
  mutable stalled_connections : int;
  mutable degraded_hits : int;
  mutable degraded_busy : int;
  mutable stopping : bool;
}

exception Busy_socket of string

let daemon_stats_json (st : state) : string =
  Printf.sprintf
    "{\"workers\": %d, \"restarts\": %d, \"shed\": %d, \"hard_timeouts\": \
     %d, \"stalled_connections\": %d, \"degraded_hits\": %d, \
     \"degraded_busy\": %d, \"breaker\": \"%s\", \"deadline_ms\": %d, \
     \"max_queue\": %d}"
    (match st.pool with Some p -> Worker.size p | None -> 0)
    (match st.pool with Some p -> Worker.restarts p | None -> 0)
    st.shed st.hard_timeouts st.stalled_connections st.degraded_hits
    st.degraded_busy
    (breaker_state_name st.brk)
    st.cfg.deadline_ms st.cfg.max_queue

(* A request's effective budget: its own deadline, or the daemon-wide
   default. *)
let with_effective_deadline (st : state) (req : Protocol.request) :
    Protocol.request =
  if req.Protocol.deadline_ms > 0 then req
  else { req with Protocol.deadline_ms = st.cfg.deadline_ms }

let busy (st : state) : Protocol.response =
  Protocol.Busy { retry_after_ms = st.cfg.retry_after_ms }

(* Record one work answer with the breaker and pass it on.  Only
   infrastructure failures count: a crashed worker, or a deadline
   expiry ([Timed_out], cooperative or a hard kill).  Semantic failures
   (bad input, validation rejects) say nothing about the daemon's
   health. *)
let settle (st : state) ?(crashed = false) (resp : Protocol.response) :
    Protocol.response =
  breaker_record st.brk
    ~failed:
      (crashed || match resp with Protocol.Timed_out _ -> true | _ -> false);
  resp

(* Dispatch one work request to the pool, recording the outcome with
   the breaker and installing cacheable results in the front cache. *)
let dispatch_to_pool (st : state) (pool : Worker.t)
    (req : Protocol.request) (key : string option) (route : string option) :
    Protocol.response =
  let hard =
    if req.Protocol.deadline_ms <= 0 then None
    else
      (* grace past the request's own budget: the worker's cooperative
         Timed_out should win whenever the pipeline reaches a pass
         boundary; the hard kill is for a worker that never does *)
      let budget = float_of_int req.Protocol.deadline_ms /. 1000.0 in
      Some (Protocol.now () +. budget +. Float.max 0.05 (budget *. 0.5))
  in
  match Worker.dispatch pool ?hard ~route req with
  | Worker.Resp resp ->
    Option.iter (fun key -> Server.install st.front ~key resp) key;
    settle st resp
  | Worker.Crashed ->
    settle st ~crashed:true
      (Protocol.Failed "worker crashed mid-request (restarted)")
  | Worker.Hard_timeout ->
    st.hard_timeouts <- st.hard_timeouts + 1;
    settle st
      (Protocol.Timed_out
         (Printf.sprintf
            "hard deadline expired (%d ms budget); worker restarted"
            req.Protocol.deadline_ms))

(* Control requests are always answered directly by the daemon: they
   must work even when every worker is wedged or the breaker is open. *)
let is_control (body : Protocol.body) : bool =
  match body with
  | Protocol.Stats | Protocol.Ping | Protocol.Shutdown -> true
  | Protocol.Compile _ | Protocol.Link _ | Protocol.Run _ | Protocol.Lint _ ->
    false

let handle_control (st : state) (body : Protocol.body) : Protocol.response =
  match body with
  | Protocol.Stats ->
    Protocol.Served
      { payload =
          Server.stats_json ~extra:[ ("daemon", daemon_stats_json st) ]
            st.front;
        metrics = Protocol.no_metrics }
  | Protocol.Shutdown ->
    st.stopping <- true;
    Protocol.Served
      { payload = "shutting down"; metrics = Protocol.no_metrics }
  | _ ->
    (* Ping (and anything else cheap): the front server answers *)
    Server.handle st.front (Protocol.req body)

(* One work request, through the breaker, the front cache, and either
   the pool or the in-process server. *)
let process_work (st : state) (req : Protocol.request) : Protocol.response =
  let req = with_effective_deadline st req in
  match breaker_gate st.brk with
  | `Degraded -> (
    (* cache hits only: the probe never runs a pipeline *)
    match Server.probe st.front req with
    | Server.Hit resp ->
      st.degraded_hits <- st.degraded_hits + 1;
      resp
    | Server.Miss _ | Server.Uncached _ ->
      st.degraded_busy <- st.degraded_busy + 1;
      busy st)
  | `Normal | `Trial -> (
    match st.pool with
    | None ->
      (* in-process: Server.handle owns cache + deadline; only the
         deadline outcome feeds the breaker *)
      settle st (Server.handle st.front req)
    | Some pool -> (
      match Server.probe st.front req with
      | Server.Hit resp -> resp
      | Server.Miss { key; route } ->
        dispatch_to_pool st pool req (Some key) route
      | Server.Uncached { route } -> dispatch_to_pool st pool req None route))

(* -- Batch processing ----------------------------------------------------------- *)

(* Decode, admit, and answer a drained batch in request order.  At most
   [max_queue] work requests are admitted; the overflow is shed with
   [Busy].  Each admitted request is answered on its own by
   [process_work], so the breaker is consulted before every one, in
   process and with workers alike. *)
let process_batch (st : state) (frames : string list) :
    Protocol.response list =
  let admitted = ref 0 in
  List.map
    (fun frame ->
      match Protocol.decode_request frame with
      | Error e -> Protocol.Failed ("bad request: " ^ e)
      | Ok req when is_control req.Protocol.body ->
        handle_control st req.Protocol.body
      | Ok req ->
        if !admitted >= st.cfg.max_queue then begin
          st.shed <- st.shed + 1;
          busy st
        end
        else begin
          incr admitted;
          process_work st req
        end)
    frames

(* -- Connection loop ------------------------------------------------------------ *)

let readable (fd : Unix.file_descr) : bool =
  match Unix.select [ fd ] [] [] 0.0 with
  | [ _ ], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

type stop = Keep_going | Stop

(* Wait for a connection's next frame in short idle slices so a
   shutdown signal is noticed within ~250 ms even on an idle
   connection. *)
let await_frame (st : state) (conn : Unix.file_descr) :
    [ `Frame of string | `Eof | `Idle | `Stalled | `Oversized of int ] =
  let frame_s = float_of_int st.cfg.frame_deadline_ms /. 1000.0 in
  let idle_until =
    Protocol.now () +. (float_of_int st.cfg.idle_timeout_ms /. 1000.0)
  in
  let rec wait () =
    if st.stopping then `Idle
    else
      let slice =
        Float.min 0.25 (Float.max 0.01 (idle_until -. Protocol.now ()))
      in
      match Protocol.read_frame_within ~idle:slice ~deadline:frame_s conn with
      | Protocol.Frame s -> `Frame s
      | Protocol.Eof -> `Eof
      | Protocol.Stalled -> `Stalled
      | Protocol.Idle ->
        if Protocol.now () >= idle_until then `Idle else wait ()
      | exception Protocol.Oversized_frame n -> `Oversized n
  in
  wait ()

(* Drain frames already queued behind the first one (up to
   [max_batch]). *)
let drain_queued (st : state) (conn : Unix.file_descr) (first : string) :
    string list * [ `More | `Eof | `Stalled | `Oversized of int ] =
  let frame_s = float_of_int st.cfg.frame_deadline_ms /. 1000.0 in
  let rec drain acc n =
    if n >= st.cfg.max_batch || not (readable conn) then (List.rev acc, `More)
    else
      match Protocol.read_frame_within ~idle:1.0 ~deadline:frame_s conn with
      | Protocol.Frame s -> drain (s :: acc) (n + 1)
      | Protocol.Eof -> (List.rev acc, `Eof)
      | Protocol.Idle | Protocol.Stalled -> (List.rev acc, `Stalled)
      | exception Protocol.Oversized_frame len -> (List.rev acc, `Oversized len)
  in
  drain [ first ] 1

let answer (conn : Unix.file_descr) (resp : Protocol.response) : unit =
  try Protocol.write_frame conn (Protocol.encode_response resp)
  with _ -> ()

(* The last answer on a connection whose frame could not be read whole:
   the stream cannot be re-synced after it, so the connection drops. *)
let frame_error (st : state) (conn : Unix.file_descr) = function
  | `Stalled ->
    (* mid-frame stall: the frame blew the framing deadline *)
    st.stalled_connections <- st.stalled_connections + 1;
    answer conn
      (Protocol.Timed_out
         (Printf.sprintf "frame not completed within %d ms"
            st.cfg.frame_deadline_ms))
  | `Oversized len ->
    answer conn
      (Protocol.Failed
         (Printf.sprintf "request frame of %d bytes exceeds the %d-byte limit"
            len Protocol.max_frame))

let serve_connection (st : state) (conn : Unix.file_descr) : stop =
  let rec loop () =
    match await_frame st conn with
    | `Eof | `Idle -> ()
    | (`Stalled | `Oversized _) as e -> frame_error st conn e
    | `Frame first -> (
      let frames, tail = drain_queued st conn first in
      List.iter (answer conn) (process_batch st frames);
      match tail with
      | `Eof -> ()
      | (`Stalled | `Oversized _) as e -> frame_error st conn e
      | `More -> if not st.stopping then loop ())
  in
  (try loop () with Unix.Unix_error _ -> ());
  if st.stopping then Stop else Keep_going

(* -- Socket lifecycle ------------------------------------------------------------ *)

(* Refuse to clobber a socket a live daemon still answers on; unlink
   only genuinely stale files. *)
let claim_socket (socket : string) : unit =
  if Sys.file_exists socket then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX socket) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        false
      | exception Unix.Unix_error _ -> false
    in
    close probe;
    if live then
      raise
        (Busy_socket
           (Printf.sprintf "%s: another daemon is already serving" socket));
    try Unix.unlink socket with Unix.Unix_error _ -> ()
  end

(* Serve until a Shutdown request or a SIGINT/SIGTERM arrives.
   [on_ready] fires after the socket is listening (tests use it to
   synchronize).  The daemon builds its own front server from
   [server_config]; with [config.workers > 0] it forks the pool (each
   worker gets the same server config and fault plan). *)
let serve ?(config = default_config) ?faults ?(on_ready = fun () -> ())
    ~(socket : string) (server_config : Server.config) : unit =
  (* writes to vanished clients or dead workers must error, not kill *)
  let old_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  (match faults with Some p -> Faults.install p | None -> ());
  claim_socket socket;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.listen fd 64;
  let st =
    { cfg = config; front = Server.create ~config:server_config ();
      pool = None; brk = breaker_of config; shed = 0; hard_timeouts = 0;
      stalled_connections = 0; degraded_hits = 0; degraded_busy = 0;
      stopping = false }
  in
  let st =
    if config.workers <= 0 then st
    else
      { st with
        pool =
          Some
            (Worker.create ~n:config.workers ?faults
               ~on_child:(fun () -> close fd)
               server_config) }
  in
  let stop_signal _ = st.stopping <- true in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle stop_signal) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle stop_signal) in
  let cleanup () =
    (match st.pool with Some p -> Worker.shutdown p | None -> ());
    close fd;
    (try Unix.unlink socket with Unix.Unix_error _ -> ());
    Sys.set_signal Sys.sigint old_int;
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigpipe old_sigpipe
  in
  Fun.protect ~finally:cleanup (fun () ->
      on_ready ();
      let rec accept_loop () =
        if st.stopping then ()
        else
          match Unix.accept fd with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
          | conn, _ ->
            let stop =
              try serve_connection st conn
              with _ -> if st.stopping then Stop else Keep_going
            in
            close conn;
            (match stop with Keep_going -> accept_loop () | Stop -> ())
      in
      accept_loop ())
