(** The daemon's wire protocol: length-framed binary messages
    (u32-be frame length, one tag byte, tag-specific fields).  The
    decoded types are also the in-process API that {!Server.handle}
    consumes, so tests and bench can drive the service without a
    socket. *)

(** A pipeline spec is part of every cache key: [Level l] selects the
    standard [-Ol] pipeline, [Passes] an explicit registered-pass
    list.  The textual forms are ["O2"] and ["passes:gvn,dce"]. *)
type pipeline =
  | Level of int
  | Passes of string list

val pipeline_to_string : pipeline -> string
val pipeline_of_string : string -> (pipeline, string) result

type compile_req = {
  c_payload : string;  (** [.ll] text or [.bc] image, sniffed *)
  c_pipeline : pipeline;
  c_validate : bool;  (** check the translation-validation witness *)
}

type link_req = {
  l_apps : string list;
  l_libs : string list;
      (** shared libraries: the link-time IPO pipeline runs once per
          distinct library set and is reused by every queued request
          sharing it *)
  l_validate : bool;
}

type run_req = {
  r_payload : string;
  r_pipeline : pipeline;
  r_fuel : int;
  r_engine : Llvm_exec.Engine.kind;
}

type body =
  | Compile of compile_req
  | Link of link_req
  | Run of run_req
  | Lint of string
  | Stats
  | Ping  (** liveness probe: always answered immediately *)
  | Shutdown

(** The request envelope.  [deadline_ms = 0] means no deadline;
    otherwise it is the request's wall-clock budget — the server
    answers {!Timed_out} instead of working past it, and the daemon
    kills (and restarts) a worker that overruns it. *)
type request = {
  deadline_ms : int;
  body : body;
}

(** [req ?deadline_ms body] wraps a body in an envelope. *)
val req : ?deadline_ms:int -> body -> request

(** Cache metrics carried by every successful response. *)
type metrics = {
  m_hit : bool;
  m_shard : int;  (** -1 when the request never touched the cache *)
  m_pipeline_ms : float;
  m_bytes : int;
}

val no_metrics : metrics

type response =
  | Served of { payload : string; metrics : metrics }
  | Rejected of string
      (** validation witness failure: the optimized result is withheld *)
  | Failed of string
  | Timed_out of string  (** the request's deadline expired mid-work *)
  | Busy of { retry_after_ms : int }
      (** shed under overload or degraded mode: retry after the hint *)

(** The payload of a [Served] response to a [Run] request. *)
type run_reply = {
  status : string;
  exit_code : int;
  output : string;
  instructions : int;
}

val encode_run_reply : run_reply -> string
val decode_run_reply : string -> (run_reply, string) result

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

(** {1 Framing} *)

val max_frame : int

(** Raised by {!read_frame} when a frame header announces more than
    {!max_frame} bytes — distinct from EOF so the daemon can answer
    [Failed] (and the client report the reason) before closing. *)
exception Oversized_frame of int

val write_frame : Unix.file_descr -> string -> unit

(** {!read_frame_within} with no idle budget and no deadline: [None] on
    EOF at a frame boundary or mid-frame.  It blocks in [read] and makes
    no [select] call.
    @raise Oversized_frame on a header exceeding {!max_frame}. *)
val read_frame : Unix.file_descr -> string option

(** Seconds on the monotonic clock: every deadline, budget and cooldown
    in the service (framing, request deadlines, worker hard kills, the
    breaker, latency and uptime) is measured on it. *)
val now : unit -> float

(** Outcome of a deadline-bounded frame read. *)
type read_outcome =
  | Frame of string
  | Eof  (** clean close at a frame boundary, or torn mid-frame *)
  | Idle  (** no byte arrived within [idle] seconds *)
  | Stalled  (** a frame started but did not complete within [deadline] *)

(** [read_frame_within ?idle ~deadline fd] is the stall-proof
    {!read_frame}: waiting for the first byte is bounded by [idle]
    seconds (default: forever); once any byte has arrived the whole
    frame must complete within [deadline] seconds or the read returns
    [Stalled].  A client that sends a partial frame and stalls can
    therefore cost the daemon at most [deadline] seconds.
    @raise Oversized_frame on a header exceeding {!max_frame}. *)
val read_frame_within :
  ?idle:float -> deadline:float -> Unix.file_descr -> read_outcome
