(* llvmd: the compile/run daemon (compilation-as-a-service).

     llvmd serve     — run the daemon on a Unix-domain socket
     llvmd compile   — client: optimize a module through the daemon
     llvmd run       — client: optimize and execute a module
     llvmd lint      — client: lint a module
     llvmd ping      — client: liveness probe
     llvmd stats     — client: print the daemon's cache/latency stats
     llvmd shutdown  — client: stop the daemon

   The daemon content-addresses modules by bitcode digest and caches
   (module × pipeline) results in a sharded LRU cache; --validate
   replays the translation-validation witness before any optimized
   result is released (a miscompile is rejected on the request that
   triggers it).

   Robustness: --deadline-ms gives every request a wall-clock budget
   (blown budgets answer Timed_out), --workers isolates pipelines in
   forked supervised processes (a crash costs one request, never the
   daemon), --max-queue sheds overload with Busy + retry hints, and
   clients retry Busy/transport failures with exponential backoff
   (--retries). *)

open Cmdliner
open Llvm_serve

let socket_arg =
  Arg.(
    value
    & opt string Daemon.default_socket
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path")

(* -- serve ------------------------------------------------------------------- *)

let serve socket shards cache_mb validate validate_fuel max_batch max_queue
    deadline_ms frame_deadline_ms workers =
  (* Cache hits served from the payload index allocate little, and under
     OCaml 5.1's default pacing (space_overhead 120) the major heap then
     grows: e2ebench serve-zipf peak_rss_mb read 19.3-19.5 MB without
     this setting and 16.7-16.9 MB with it, against 17.6-17.8 MB before
     the index (EXPERIMENTS, "The llvmd payload index"). *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 80 };
  let server_config =
    { Server.shards;
      shard_bytes = cache_mb * 1024 * 1024 / max 1 shards;
      validate;
      validate_fuel }
  in
  let config =
    { Daemon.default_config with
      Daemon.max_batch; max_queue; deadline_ms; frame_deadline_ms; workers }
  in
  Fmt.pr "llvmd: serving on %s (%d shards, %d MB cache, %d workers%s%s)@."
    socket shards cache_mb workers
    (if deadline_ms > 0 then Fmt.str ", %dms deadline" deadline_ms else "")
    (if validate then ", validating" else "");
  (try Daemon.serve ~config ~socket server_config
   with Daemon.Busy_socket msg -> Tool_common.fail "llvmd: %s" msg);
  Fmt.pr "llvmd: shut down@."

let serve_cmd =
  let shards =
    Arg.(value & opt int Cache.default_shards
         & info [ "shards" ] ~docv:"N" ~doc:"cache shard count")
  in
  let cache_mb =
    Arg.(value & opt int 64
         & info [ "cache-mb" ] ~docv:"MB" ~doc:"total cache byte budget")
  in
  let validate =
    Arg.(value & flag
         & info [ "validate" ]
             ~doc:"replay the translation-validation witness on every \
                   compile/link; reject divergent results")
  in
  let validate_fuel =
    Arg.(value & opt int Server.default_config.Server.validate_fuel
         & info [ "validate-fuel" ] ~docv:"N")
  in
  let max_batch =
    Arg.(value & opt int Daemon.default_config.Daemon.max_batch
         & info [ "max-batch" ] ~docv:"N"
             ~doc:"max queued frames drained per batch")
  in
  let max_queue =
    Arg.(value & opt int Daemon.default_config.Daemon.max_queue
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"max work requests admitted per batch; the overflow is \
                   answered Busy with a retry hint")
  in
  let deadline_ms =
    Arg.(value & opt int 0
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"default wall-clock budget per request (0 = none); blown \
                   budgets answer Timed_out")
  in
  let frame_deadline_ms =
    Arg.(value & opt int Daemon.default_config.Daemon.frame_deadline_ms
         & info [ "frame-deadline-ms" ] ~docv:"MS"
             ~doc:"budget for completing a started request frame; a client \
                   that stalls mid-frame is dropped after this long")
  in
  let workers =
    Arg.(value & opt int 0
         & info [ "workers" ] ~docv:"N"
             ~doc:"forked worker processes; pipeline crashes cost one \
                   request and a respawn instead of the daemon (0 = run \
                   in-process)")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"run the compile/run daemon")
    Term.(
      const serve $ socket_arg $ shards $ cache_mb $ validate $ validate_fuel
      $ max_batch $ max_queue $ deadline_ms $ frame_deadline_ms $ workers)

(* -- client helpers ----------------------------------------------------------- *)

let exchange ~socket ~retries ~deadline_ms (body : Protocol.body) =
  let req = Protocol.req ~deadline_ms body in
  match
    Daemon.request_with_retry ~attempts:(max 1 retries) ~socket req
  with
  | Error (Daemon.Io e) ->
    Tool_common.fail "%s: %s (is llvmd serve running?)" socket e
  | Error e -> Tool_common.fail "protocol error: %s" (Daemon.error_to_string e)
  | Ok (Protocol.Failed e) -> Tool_common.fail "llvmd: %s" e
  | Ok (Protocol.Rejected why) ->
    prerr_endline ("llvmd: REJECTED: " ^ why);
    exit 3
  | Ok (Protocol.Timed_out why) ->
    prerr_endline ("llvmd: TIMED OUT: " ^ why);
    exit 4
  | Ok (Protocol.Busy _) ->
    Tool_common.fail "llvmd: busy (retries exhausted)"
  | Ok (Protocol.Served { payload; metrics }) -> (payload, metrics)

let pipeline_of level passes =
  if passes <> [] then Protocol.Passes passes else Protocol.Level level

let pp_metrics (m : Protocol.metrics) : unit =
  Fmt.epr "; llvmd: %s shard=%d pipeline=%.2fms bytes=%d@."
    (if m.Protocol.m_hit then "HIT" else "miss")
    m.Protocol.m_shard m.Protocol.m_pipeline_ms m.Protocol.m_bytes

let level_arg =
  Arg.(value & opt int 2 & info [ "O" ] ~docv:"LEVEL"
       ~doc:"standard pipeline level (0-3)")

let passes_arg =
  Arg.(value & opt_all string [] & info [ "p"; "pass" ] ~docv:"PASS"
       ~doc:"explicit pass list (overrides -O)")

let validate_arg =
  Arg.(value & flag
       & info [ "validate" ] ~doc:"require the translation-validation witness")

let deadline_arg =
  Arg.(value & opt int 0
       & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"wall-clock budget for this request (0 = daemon default)")

let retries_arg =
  Arg.(value & opt int 4
       & info [ "retries" ] ~docv:"N"
           ~doc:"attempts when the daemon sheds load (exponential backoff \
                 with jitter)")

let input_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT")

(* -- compile ------------------------------------------------------------------ *)

let compile socket input output level passes validate deadline_ms retries quiet
    =
  let payload = Tool_common.read_file input in
  let payload', metrics =
    exchange ~socket ~retries ~deadline_ms
      (Protocol.Compile
         { c_payload = payload; c_pipeline = pipeline_of level passes;
           c_validate = validate })
  in
  if not quiet then pp_metrics metrics;
  match output with
  | Some o when Filename.check_suffix o ".ll" ->
    (match Llvm_bitcode.Decoder.decode payload' with
    | m -> Tool_common.write_file o (Llvm_ir.Printer.module_to_string m)
    | exception Llvm_bitcode.Decoder.Malformed e ->
      Tool_common.fail "served bitcode is malformed: %s" e)
  | Some o -> Tool_common.write_file o payload'
  | None -> (
    (* default to textual IR on stdout *)
    match Llvm_bitcode.Decoder.decode payload' with
    | m -> print_string (Llvm_ir.Printer.module_to_string m)
    | exception Llvm_bitcode.Decoder.Malformed e ->
      Tool_common.fail "served bitcode is malformed: %s" e)

let compile_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUTPUT")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ]) in
  Cmd.v
    (Cmd.info "compile" ~doc:"optimize a module through the daemon")
    Term.(
      const compile $ socket_arg $ input_arg $ output $ level_arg $ passes_arg
      $ validate_arg $ deadline_arg $ retries_arg $ quiet)

(* -- run ---------------------------------------------------------------------- *)

let run socket input level passes fuel engine deadline_ms retries quiet =
  let payload = Tool_common.read_file input in
  let reply, metrics =
    exchange ~socket ~retries ~deadline_ms
      (Protocol.Run
         { r_payload = payload; r_pipeline = pipeline_of level passes;
           r_fuel = fuel; r_engine = engine })
  in
  if not quiet then pp_metrics metrics;
  match Protocol.decode_run_reply reply with
  | Error e -> Tool_common.fail "bad run reply: %s" e
  | Ok r ->
    print_string r.Protocol.output;
    Fmt.pr "@.; executed %d instructions (%s)@." r.Protocol.instructions
      r.Protocol.status;
    exit r.Protocol.exit_code

let run_cmd =
  let fuel =
    Arg.(value & opt int 50_000_000 & info [ "fuel" ] ~docv:"N")
  in
  let engine =
    let kinds =
      [ ("interp", Llvm_exec.Engine.Interp_tier);
        ("bytecode", Llvm_exec.Engine.Bytecode_tier);
        ("tiered", Llvm_exec.Engine.Tiered) ]
    in
    Arg.(value & opt (enum kinds) Llvm_exec.Engine.Tiered
         & info [ "engine" ] ~docv:"TIER")
  in
  let quiet = Arg.(value & flag & info [ "q"; "quiet" ]) in
  Cmd.v
    (Cmd.info "run" ~doc:"optimize and execute a module through the daemon")
    Term.(
      const run $ socket_arg $ input_arg $ level_arg $ passes_arg $ fuel
      $ engine $ deadline_arg $ retries_arg $ quiet)

(* -- lint / ping / stats / shutdown --------------------------------------------- *)

let lint socket input deadline_ms retries =
  let payload = Tool_common.read_file input in
  let report, _ =
    exchange ~socket ~retries ~deadline_ms (Protocol.Lint payload)
  in
  if report <> "" then print_endline report

let lint_cmd =
  Cmd.v
    (Cmd.info "lint" ~doc:"lint a module through the daemon (JSON diagnostics)")
    Term.(const lint $ socket_arg $ input_arg $ deadline_arg $ retries_arg)

let ping socket =
  let t0 = Unix.gettimeofday () in
  let msg, _ = exchange ~socket ~retries:1 ~deadline_ms:0 Protocol.Ping in
  Fmt.pr "llvmd: %s (%.2fms)@." msg ((Unix.gettimeofday () -. t0) *. 1000.0)

let ping_cmd =
  Cmd.v
    (Cmd.info "ping" ~doc:"liveness probe (answered even under load)")
    Term.(const ping $ socket_arg)

let stats socket =
  let json, _ = exchange ~socket ~retries:1 ~deadline_ms:0 Protocol.Stats in
  print_string json

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"print daemon cache and latency statistics")
    Term.(const stats $ socket_arg)

let shutdown socket =
  let msg, _ = exchange ~socket ~retries:1 ~deadline_ms:0 Protocol.Shutdown in
  Fmt.pr "llvmd: %s@." msg

let shutdown_cmd =
  Cmd.v (Cmd.info "shutdown" ~doc:"stop the daemon")
    Term.(const shutdown $ socket_arg)

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "llvmd"
             ~doc:"compilation-as-a-service: sharded, caching compile/run \
                   daemon")
          [ serve_cmd; compile_cmd; run_cmd; lint_cmd; ping_cmd; stats_cmd;
            shutdown_cmd ]))
