(* The wire protocol: length-framed binary request/response messages.

   Frame   := u32-be length, then that many body bytes.
   Body    := one tag byte, then tag-specific fields.
   Strings := u32-be length + bytes.  Ints are u32-be (or u64-be where
   noted); floats travel as IEEE-754 bits in a u64.

   The same codec serves the Unix-socket daemon and any in-process
   round-trip test; [Server.handle] itself works on the decoded types,
   so tests and bench can skip the socket entirely. *)

type pipeline =
  | Level of int
  | Passes of string list

let pipeline_to_string = function
  | Level l -> Printf.sprintf "O%d" l
  | Passes ps -> "passes:" ^ String.concat "," ps

let pipeline_of_string (s : string) : (pipeline, string) result =
  let prefix = "passes:" in
  let plen = String.length prefix in
  if String.length s >= 2 && s.[0] = 'O' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some l when Llvm_transforms.Pipelines.is_level l -> Ok (Level l)
    | _ -> Error (Printf.sprintf "bad optimization level %S" s)
  else if String.length s > plen && String.sub s 0 plen = prefix then
    Ok
      (Passes
         (String.split_on_char ',' (String.sub s plen (String.length s - plen))))
  else Error (Printf.sprintf "bad pipeline spec %S" s)

type compile_req = {
  c_payload : string; (* .ll text or .bc image, sniffed by the loader *)
  c_pipeline : pipeline;
  c_validate : bool;
}

type link_req = {
  l_apps : string list; (* application modules, .ll or .bc *)
  l_libs : string list; (* shared libraries: IPO runs once per library set *)
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
  | Ping
  | Shutdown

(* Every request travels in an envelope carrying its wall-clock budget.
   [deadline_ms = 0] means "no deadline"; otherwise the server answers
   [Timed_out] rather than keep working past the budget, and the daemon
   kills a worker that overruns it. *)
type request = {
  deadline_ms : int;
  body : body;
}

let req ?(deadline_ms = 0) (body : body) : request = { deadline_ms; body }

(* Every served response carries the cache metrics for the request. *)
type metrics = {
  m_hit : bool;
  m_shard : int; (* -1 when the request never touched the cache *)
  m_pipeline_ms : float; (* time spent in pipelines (0 on a hit) *)
  m_bytes : int; (* payload size *)
}

let no_metrics = { m_hit = false; m_shard = -1; m_pipeline_ms = 0.0; m_bytes = 0 }

type response =
  | Served of { payload : string; metrics : metrics }
  | Rejected of string (* validation witness failure: result withheld *)
  | Failed of string (* malformed input, unknown pass, ... *)
  | Timed_out of string (* the request's deadline expired mid-work *)
  | Busy of { retry_after_ms : int } (* shed: queue full or degraded mode *)

type run_reply = {
  status : string;
  exit_code : int;
  output : string;
  instructions : int;
}

(* -- Primitive writers/readers ---------------------------------------------- *)

let w_u8 b v = Buffer.add_uint8 b (v land 0xff)
let w_u32 b v = Buffer.add_int32_be b (Int32.of_int v)

let w_str b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_bool b v = w_u8 b (if v then 1 else 0)
let w_float b f = Buffer.add_int64_be b (Int64.bits_of_float f)

let w_list b (f : Buffer.t -> 'a -> unit) (xs : 'a list) =
  w_u32 b (List.length xs);
  List.iter (f b) xs

exception Bad of string

module Cursor = Llvm_ir.Cursor

let bad : Cursor.error -> exn = function
  | Truncated_string -> Bad "truncated string"
  | Truncated | Bad_count _ -> Bad "truncated message"

let read_str c = Cursor.take c (Cursor.u32_be c)
let read_bool c = Cursor.byte c <> 0

let read_list c (f : Cursor.t -> 'a) : 'a list =
  List.init (Cursor.u32_be c) (fun _ -> f c)

(* -- Engine kinds ------------------------------------------------------------ *)

let engine_code = function
  | Llvm_exec.Engine.Interp_tier -> 0
  | Llvm_exec.Engine.Bytecode_tier -> 1
  | Llvm_exec.Engine.Tiered -> 2

let engine_of_code = function
  | 0 -> Llvm_exec.Engine.Interp_tier
  | 1 -> Llvm_exec.Engine.Bytecode_tier
  | 2 -> Llvm_exec.Engine.Tiered
  | n -> raise (Bad (Printf.sprintf "bad engine code %d" n))

(* -- Requests ---------------------------------------------------------------- *)

let tag_compile = 1
let tag_link = 2
let tag_run = 3
let tag_lint = 4
let tag_stats = 5
let tag_shutdown = 6
let tag_ping = 7

let encode_request (r : request) : string =
  let b = Buffer.create 256 in
  w_u32 b r.deadline_ms;
  (match r.body with
  | Compile { c_payload; c_pipeline; c_validate } ->
    w_u8 b tag_compile;
    w_str b c_payload;
    w_str b (pipeline_to_string c_pipeline);
    w_bool b c_validate
  | Link { l_apps; l_libs; l_validate } ->
    w_u8 b tag_link;
    w_list b w_str l_apps;
    w_list b w_str l_libs;
    w_bool b l_validate
  | Run { r_payload; r_pipeline; r_fuel; r_engine } ->
    w_u8 b tag_run;
    w_str b r_payload;
    w_str b (pipeline_to_string r_pipeline);
    Buffer.add_int64_be b (Int64.of_int r_fuel);
    w_u8 b (engine_code r_engine)
  | Lint payload ->
    w_u8 b tag_lint;
    w_str b payload
  | Stats -> w_u8 b tag_stats
  | Ping -> w_u8 b tag_ping
  | Shutdown -> w_u8 b tag_shutdown);
  Buffer.contents b

let pipeline_of_cursor c =
  match pipeline_of_string (read_str c) with
  | Ok p -> p
  | Error e -> raise (Bad e)

let decode_request (frame : string) : (request, string) result =
  let c = Cursor.create ~fail:bad frame in
  try
    let deadline_ms = Cursor.u32_be c in
    let tag = Cursor.byte c in
    let body =
      if tag = tag_compile then
        let c_payload = read_str c in
        let c_pipeline = pipeline_of_cursor c in
        let c_validate = read_bool c in
        Compile { c_payload; c_pipeline; c_validate }
      else if tag = tag_link then
        let l_apps = read_list c read_str in
        let l_libs = read_list c read_str in
        let l_validate = read_bool c in
        Link { l_apps; l_libs; l_validate }
      else if tag = tag_run then
        let r_payload = read_str c in
        let r_pipeline = pipeline_of_cursor c in
        let r_fuel = Int64.to_int (Cursor.i64_be c) in
        let r_engine = engine_of_code (Cursor.byte c) in
        Run { r_payload; r_pipeline; r_fuel; r_engine }
      else if tag = tag_lint then Lint (read_str c)
      else if tag = tag_stats then Stats
      else if tag = tag_ping then Ping
      else if tag = tag_shutdown then Shutdown
      else raise (Bad (Printf.sprintf "unknown request tag %d" tag))
    in
    if not (Cursor.at_end c) then Error "trailing bytes in request"
    else Ok { deadline_ms; body }
  with Bad e -> Error e

(* -- Responses ---------------------------------------------------------------- *)

let tag_served = 1
let tag_rejected = 2
let tag_failed = 3
let tag_timed_out = 4
let tag_busy = 5

let encode_response (r : response) : string =
  let b = Buffer.create 256 in
  (match r with
  | Served { payload; metrics } ->
    w_u8 b tag_served;
    w_str b payload;
    w_bool b metrics.m_hit;
    w_u32 b (metrics.m_shard land 0xffff);
    w_u8 b (if metrics.m_shard < 0 then 1 else 0);
    w_float b metrics.m_pipeline_ms;
    w_u32 b metrics.m_bytes
  | Rejected msg ->
    w_u8 b tag_rejected;
    w_str b msg
  | Failed msg ->
    w_u8 b tag_failed;
    w_str b msg
  | Timed_out msg ->
    w_u8 b tag_timed_out;
    w_str b msg
  | Busy { retry_after_ms } ->
    w_u8 b tag_busy;
    w_u32 b retry_after_ms);
  Buffer.contents b

let decode_response (body : string) : (response, string) result =
  let c = Cursor.create ~fail:bad body in
  try
    let tag = Cursor.byte c in
    let resp =
      if tag = tag_served then begin
        let payload = read_str c in
        let m_hit = read_bool c in
        let shard_raw = Cursor.u32_be c in
        let negative = Cursor.byte c <> 0 in
        let m_pipeline_ms = Int64.float_of_bits (Cursor.i64_be c) in
        let m_bytes = Cursor.u32_be c in
        Served
          { payload;
            metrics =
              { m_hit; m_shard = (if negative then -1 else shard_raw);
                m_pipeline_ms; m_bytes } }
      end
      else if tag = tag_rejected then Rejected (read_str c)
      else if tag = tag_failed then Failed (read_str c)
      else if tag = tag_timed_out then Timed_out (read_str c)
      else if tag = tag_busy then Busy { retry_after_ms = Cursor.u32_be c }
      else raise (Bad (Printf.sprintf "unknown response tag %d" tag))
    in
    if not (Cursor.at_end c) then Error "trailing bytes in response"
    else Ok resp
  with Bad e -> Error e

(* -- Run replies (the payload of a Served Run response) ----------------------- *)

let encode_run_reply (r : run_reply) : string =
  let b = Buffer.create 64 in
  w_str b r.status;
  w_u32 b (r.exit_code land 0xffff);
  w_str b r.output;
  Buffer.add_int64_be b (Int64.of_int r.instructions);
  Buffer.contents b

let decode_run_reply (body : string) : (run_reply, string) result =
  let c = Cursor.create ~fail:bad body in
  try
    let status = read_str c in
    let exit_code = Cursor.u32_be c in
    let output = read_str c in
    let instructions = Int64.to_int (Cursor.i64_be c) in
    Ok { status; exit_code; output; instructions }
  with Bad e -> Error e

(* -- Framing over file descriptors -------------------------------------------- *)

(* 256 MB: far above any real module, small enough to reject garbage
   frames from a confused client before allocating. *)
let max_frame = 256 * 1024 * 1024

(* Oversize is not EOF: the peer deserves an answer (and a log line)
   before the connection drops, and after a bad header the stream can
   no longer be framed anyway. *)
exception Oversized_frame of int

let write_frame (fd : Unix.file_descr) (body : string) : unit =
  let b = Buffer.create (String.length body + 4) in
  w_u32 b (String.length body);
  Buffer.add_string b body;
  let s = Buffer.to_bytes b in
  let n = Bytes.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write fd s !written (n - !written)
  done

(* -- Deadline-bounded framing -------------------------------------------------- *)

(* The one clock of lib/serve, in seconds: monotonic, so a wall-clock
   step can neither fire nor extend a deadline, a cooldown or a budget. *)
let now () : float = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The fix for the documented stall bug: a peer that sends a partial
   frame and then stalls must not stall the reader with it.  Waiting for
   the *first* byte of a frame is bounded by [idle] (a silent connection
   is just idle); once any byte has arrived, the rest of the frame must
   land within [deadline] seconds or the read gives up ([Stalled]).
   With neither limit there is nothing to time, so the reader blocks in
   [read] and makes no [select] call. *)

type read_outcome =
  | Frame of string
  | Eof (* clean close at a frame boundary, or torn mid-frame *)
  | Idle (* no byte arrived within [idle] *)
  | Stalled (* a frame started but did not complete within [deadline] *)

(* Wait until [fd] is readable or [until] (absolute; [infinity] = wait
   forever) passes. *)
let wait_readable (fd : Unix.file_descr) (until : float) : bool =
  let rec go () =
    let dt =
      if until = infinity then -1.0 (* select: negative = block *)
      else until -. now ()
    in
    if until <> infinity && dt <= 0.0 then false
    else
      match Unix.select [ fd ] [] [] dt with
      | [ _ ], _, _ -> true
      | _ -> go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Read exactly [n] bytes, none of them later than [until]. *)
let read_exactly_within (fd : Unix.file_descr) (n : int) (until : float) :
    [ `Bytes of Bytes.t | `Eof | `Timeout ] =
  let buf = Bytes.create n in
  let rec go off =
    if off = n then `Bytes buf
    else if until <> infinity && not (wait_readable fd until) then `Timeout
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> `Eof
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let read_frame_within ?(idle = infinity) ~(deadline : float)
    (fd : Unix.file_descr) : read_outcome =
  let idle_until =
    if idle = infinity then infinity else now () +. idle
  in
  if (idle <> infinity || deadline <> infinity)
     && not (wait_readable fd idle_until)
  then Idle
  else
    (* a byte is pending: the whole frame now has [deadline] seconds *)
    let until = now () +. deadline in
    match read_exactly_within fd 4 until with
    | `Eof -> Eof
    | `Timeout -> Stalled
    | `Bytes hdr ->
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) land 0xffff_ffff in
      if len > max_frame then raise (Oversized_frame len)
      else (
        match read_exactly_within fd len until with
        | `Eof -> Eof
        | `Timeout -> Stalled
        | `Bytes body -> Frame (Bytes.to_string body))

(* [None] on EOF at a frame boundary or mid-frame. *)
let read_frame (fd : Unix.file_descr) : string option =
  match read_frame_within ~deadline:infinity fd with
  | Frame body -> Some body
  | Eof | Idle | Stalled -> None
