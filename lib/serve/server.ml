(* Compilation-as-a-service: the in-process request handler.

   The daemon (Daemon) is a thin socket loop over this module, and
   tests/bench call [handle] directly — the pure-pipeline core stays in
   lib/transforms; this driver owns caching and scheduling
   (the Juvix Compiler/Pipeline split named in the roadmap).

   Content addressing: a module's identity is its canonical digest, the
   MD5 of the bitcode the encoder writes for it (Llvm_bitcode.Digest),
   so the same program arriving as .ll or .bc hits the same cache line.
   The pass-result cache maps (canonical digest × what is done to the
   module) to optimized bitcode or a lint report across N LRU shards
   (Cache).  Computing that digest means loading, verifying and
   re-encoding the payload, so the server also keeps a payload index:
   the MD5 of a compile, run or lint request's raw bytes → the
   canonical digest its load computed, added only once the payload has
   loaded and verified.  A request whose bytes are indexed builds its
   key without loading them; the payload is loaded only if the cache
   then misses.  The index holds digests, never payloads or modules,
   and serves no bytes: every answer still comes through Cache.find and
   its integrity check, and "these bytes have that digest" stays true
   when a corrupt entry is rebuilt, so nothing invalidates it.  It is
   cleared when it reaches [index_cap] entries.  Link payloads always
   take the full load.

   Link-time IPO: a Link request names application modules plus a
   shared library set.  The expensive link-time IPO pipeline runs once
   per distinct library set: its result is cached under the set's
   digest ("libs-ipo"), so the first request that names a set fills
   that entry and every later one decodes it, links its apps against
   the pre-optimized library and pays only the per-module pipeline.

   Validation: with [--validate] (or per-request), the server replays
   the translation-validation witness before releasing a result: the
   original module and the optimized module are executed in the
   interpreter tier under the same fuel and must agree on status and
   output.  A divergent optimization is Rejected on the request that
   triggered it — never served, never cached. *)

open Llvm_ir
module Engine = Llvm_exec.Engine
module Interp = Llvm_exec.Interp

type config = {
  shards : int;
  shard_bytes : int;
  validate : bool; (* force witness validation on every compile/link *)
  validate_fuel : int;
}

let default_config =
  { shards = Cache.default_shards;
    shard_bytes = Cache.default_shard_bytes;
    validate = false;
    validate_fuel = 20_000_000 }

type counters = {
  mutable c_compile : int;
  mutable c_link : int;
  mutable c_run : int;
  mutable c_lint : int;
  mutable c_stats : int;
  mutable c_ping : int;
  mutable c_failed : int;
  mutable c_rejected : int;
  mutable c_timed_out : int;
}

(* log2 microsecond buckets: bucket b holds latencies in [2^b, 2^b+1) us *)
let lat_buckets = 32

(* The payload index's entry cap: a full index is cleared. *)
let index_cap = 4096

type t = {
  cfg : config;
  cache : Cache.t;
  index : (string, string) Hashtbl.t;  (* raw payload MD5 -> canonical digest *)
  mutable index_hits : int;
  ctr : counters;
  mutable validation_rejects : int;
  lat : int array;
  mutable lat_count : int;
  mutable lat_max_us : int;
  started : float;
}

let create ?(config = default_config) () : t =
  { cfg = config;
    cache = Cache.create ~shards:config.shards ~shard_bytes:config.shard_bytes ();
    index = Hashtbl.create 64;
    index_hits = 0;
    ctr =
      { c_compile = 0; c_link = 0; c_run = 0; c_lint = 0; c_stats = 0;
        c_ping = 0; c_failed = 0; c_rejected = 0; c_timed_out = 0 };
    validation_rejects = 0;
    lat = Array.make lat_buckets 0;
    lat_count = 0;
    lat_max_us = 0;
    started = Protocol.now () }

let cache (t : t) : Cache.t = t.cache
let hit_rate (t : t) : float = Cache.hit_rate t.cache
let validation_rejects (t : t) : int = t.validation_rejects
let index_entries (t : t) : int = Hashtbl.length t.index
let index_hits (t : t) : int = t.index_hits

let requests (t : t) : int =
  t.ctr.c_compile + t.ctr.c_link + t.ctr.c_run + t.ctr.c_lint + t.ctr.c_stats
  + t.ctr.c_ping

let timed_out (t : t) : int = t.ctr.c_timed_out

(* -- Module loading ----------------------------------------------------------- *)

let first_verify_error (m : Ir.modul) : string option =
  match Verify.verify_module m with
  | [] -> None
  | e :: _ -> Some (Fmt.str "%a" Verify.pp_error e)

let load_verified ~(what : string) (payload : string) :
    (Ir.modul, string) result =
  match Loader.of_bytes ~name:what payload with
  | Error e -> Error e
  | Ok m -> (
    match first_verify_error m with
    | Some e -> Error (Fmt.str "%s: verification failed: %s" what e)
    | None -> Ok m)

(* Parse a payload and compute its canonical identity.  The canonical
   bytes are the encoder's output for the freshly loaded module, so
   textual and binary deliveries of the same program share a digest. *)
let load_payload ~(what : string) (payload : string) :
    (Ir.modul * string, string) result =
  Result.map (fun m -> (m, Llvm_bitcode.Digest.of_module m)) (load_verified ~what payload)

(* A module payload's canonical digest, and how to get its module.  An
   indexed payload costs one MD5 of its bytes, and its module is loaded
   only when [load] is called (on a cache miss).  Any other payload is
   loaded and verified here, and indexed once it has. *)
let identify (t : t) ~(what : string) (payload : string) :
    (string * (unit -> (Ir.modul, string) result), string) result =
  let raw = Llvm_bitcode.Digest.of_bytes payload in
  match Hashtbl.find_opt t.index raw with
  | Some digest ->
    t.index_hits <- t.index_hits + 1;
    Ok (digest, fun () -> load_verified ~what payload)
  | None -> (
    match load_payload ~what payload with
    | Error e -> Error e
    | Ok (m, digest) ->
      if Hashtbl.length t.index >= index_cap then Hashtbl.reset t.index;
      Hashtbl.replace t.index raw digest;
      Ok (digest, fun () -> Ok m))

(* -- Pipelines ----------------------------------------------------------------- *)

(* Raised at a pass boundary when the request's wall-clock budget is
   spent; [handle] turns it into a [Timed_out] response.  Enforcement
   is cooperative — a single pass runs to completion — so the daemon
   additionally hard-kills a worker that blows far past its deadline. *)
exception Deadline_expired

let check_deadline (deadline : float option) : unit =
  match deadline with
  | Some d when Protocol.now () > d -> raise Deadline_expired
  | _ -> ()

(* The daemon's hooks on the one pass runner: the deadline is checked
   before every pass, and an injected mid-pipeline crash fires after
   each.  Callers invoke [Faults.pipeline_start] once before the run. *)
let pass_hooks (deadline : float option) : Llvm_transforms.Pass.hook list =
  [ { before = (fun _ _ -> check_deadline deadline);
      after = (fun _ _ _ -> Faults.pass_boundary ()) } ]

let run_pipeline ~(deadline : float option) (spec : Protocol.pipeline)
    (m : Ir.modul) : (unit, string) result =
  let rec resolve acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
      match Llvm_transforms.Pass.find name with
      | None -> Error (Fmt.str "unknown pass %S" name)
      | Some p -> resolve (p :: acc) rest)
  in
  let passes =
    match spec with
    | Protocol.Level l -> Ok (Llvm_transforms.Pipelines.passes ~level:l)
    | Protocol.Passes names -> resolve [] names
  in
  Result.map
    (fun ps ->
      Faults.pipeline_start ();
      ignore (Llvm_transforms.Pass.run_sequence ~hooks:(pass_hooks deadline) ps m))
    passes

(* -- Translation-validation witness ------------------------------------------- *)

(* Observable behaviour under the interpreter tier, profiling off:
   status plus program output.  Instruction counts are excluded —
   optimization changes them by design.  Two modules without [main]
   trap alike, so their witness is vacuously valid.  [reference] must be a freshly loaded module (the
   pipelines mutate in place); compares it against the optimized
   module. *)
let check_witness (t : t) ~(reference : Ir.modul) ~(optimized : Ir.modul) :
    (unit, string) result =
  let run m = Engine.run_main ~fuel:t.cfg.validate_fuel Engine.Interp_tier m in
  let ((r0, _) as before) = run reference in
  let ((r1, _) as after) = run optimized in
  match Interp.differences ~fields:[ Status; Output ] before after with
  | Status :: _ ->
    Error
      (Fmt.str "status diverged: %S before, %S after"
         (Interp.status_to_string r0.status) (Interp.status_to_string r1.status))
  | Output :: _ ->
    Error
      (Fmt.str "output diverged (%d bytes before, %d after)"
         (String.length r0.output) (String.length r1.output))
  | _ -> Ok ()

(* -- Requests: one plan, one lookup, one miss tail ------------------------- *)

let ms (t0 : float) : float = (Protocol.now () -. t0) *. 1000.0

let served (t : t) ~hit ~key ~pipeline_ms (payload : string) :
    Protocol.response =
  Protocol.Served
    { payload;
      metrics =
        { m_hit = hit; m_shard = Cache.shard_of t.cache key;
          m_pipeline_ms = pipeline_ms; m_bytes = String.length payload } }

(* A cacheable request after its payloads are loaded and verified: the
   cache [key], the worker-affinity [route] the daemon's probe hands
   out, and what to do on a miss.  [build ~deadline] returns the bytes
   to cache and the pipeline time in ms, or the response to send
   instead. *)
type plan = {
  key : string;
  route : string option;
  build : deadline:float option -> (string * float, Protocol.response) result;
}

(* The miss tail shared by compile and link: the optimized module must
   verify, the deadline is checked, and a validating request replays
   the witness against a freshly loaded [reference] before the module
   is encoded.  [pipeline_ms] stops before the witness.  [invalid] and
   [what] keep each caller's Failed/Rejected text. *)
let finish (t : t) ~(deadline : float option) ~(t0 : float) ~(validate : bool)
    ~(invalid : string) ~(what : string)
    ~(reference : unit -> (Ir.modul, string) result) (m : Ir.modul) :
    (string * float, Protocol.response) result =
  match first_verify_error m with
  | Some e -> Error (Protocol.Failed (invalid ^ ": " ^ e))
  | None -> (
    let pipeline_ms = ms t0 in
    check_deadline deadline;
    let witness =
      if not validate then Ok ()
      else
        match reference () with
        | Error e -> Error e
        | Ok reference -> check_witness t ~reference ~optimized:m
    in
    match witness with
    | Error why ->
      t.validation_rejects <- t.validation_rejects + 1;
      Error
        (Protocol.Rejected
           (Fmt.str "translation validation failed for %s: %s" what why))
    | Ok () -> Ok (fst (Llvm_bitcode.Encoder.encode m), pipeline_ms))

(* What a compile, run or lint request does to its one module. *)
type job = Optimize of { spec : Protocol.pipeline; validate : bool } | Lint

(* A module request's cache key.  Validated results live under their own
   keys ("|v"), for compile and link alike: a validating request can
   only ever hit an entry that passed the witness. *)
let module_key (digest : string) (job : job) : string =
  match job with
  | Optimize { spec; validate } ->
    digest ^ "|" ^ Protocol.pipeline_to_string spec ^ if validate then "|v" else ""
  | Lint -> digest ^ "|lint"

let build_job (t : t) (job : job) (payload : string) ~(deadline : float option)
    (m : Ir.modul) : (string * float, Protocol.response) result =
  let t0 = Protocol.now () in
  match job with
  | Optimize { spec; validate } -> (
    match run_pipeline ~deadline spec m with
    | Error e -> Error (Protocol.Failed e)
    | Ok () ->
      finish t ~deadline ~t0 ~validate
        ~invalid:"pipeline produced an invalid module (pass bug)"
        ~what:(Protocol.pipeline_to_string spec)
        ~reference:(fun () -> Loader.of_bytes ~name:"reference" payload)
        m)
  | Lint ->
    let diags = Llvm_analysis.Lint.run m in
    Ok (String.concat "\n" (List.map Llvm_analysis.Lint.diag_to_json diags), ms t0)

(* The key comes from the payload index when it can, so a hit neither
   loads nor verifies; the module is loaded on a miss. *)
let plan_module (t : t) ~(what : string) (job : job) (payload : string) :
    (plan, string) result =
  match identify t ~what payload with
  | Error e -> Error e
  | Ok (digest, load) ->
    let build ~deadline =
      match load () with
      | Error e -> Error (Protocol.Failed e)
      | Ok m -> build_job t job payload ~deadline m
    in
    Ok { key = module_key digest job; route = Some digest; build }

let plan_compile (t : t) ~(validate : bool) (payload : string)
    (spec : Protocol.pipeline) : (plan, string) result =
  plan_module t ~what:"compile request"
    (Optimize { spec; validate = validate || t.cfg.validate })
    payload

(* Load a list of payloads; the digest of the set is the digest of the
   concatenated member digests (order-sensitive: link order matters). *)
let load_set ~(what : string) (payloads : string list) :
    (Ir.modul list * string, string) result =
  let rec go acc digests = function
    | [] ->
      Ok
        ( List.rev acc,
          Llvm_bitcode.Digest.of_bytes (String.concat "+" (List.rev digests)) )
    | p :: rest -> (
      match load_payload ~what p with
      | Error e -> Error e
      | Ok (m, d) -> go (m :: acc) (d :: digests) rest)
  in
  go [] [] payloads

let link ~(name : string) (mods : Ir.modul list) : (Ir.modul, string) result =
  match Llvm_linker.Link.link ~name mods with
  | exception Llvm_linker.Link.Link_error e -> Error ("link error: " ^ e)
  | m -> Ok m

(* One link-time IPO pipeline run per distinct library set, cached
   under the set digest.  [mods] are the freshly loaded library modules
   (consumed: the pipeline mutates in place); the caller loads them
   once and threads them here along with the digest, so a cache miss
   never re-parses the payloads. *)
let optimized_libs (t : t) ?deadline (mods : Ir.modul list)
    (libs_digest : string) : (Ir.modul, string) result =
  let key = libs_digest ^ "|libs-ipo" in
  let rebuild () =
    match link ~name:"libs" mods with
    | Error e -> Error e
    | Ok libm -> (
      Faults.pipeline_start ();
      ignore
        (Llvm_transforms.Pass.run_sequence ~hooks:(pass_hooks deadline)
           Llvm_transforms.Pipelines.link_time_ipo libm);
      match first_verify_error libm with
      | Some e -> Error ("library IPO produced an invalid module: " ^ e)
      | None ->
        Cache.put t.cache key (fst (Llvm_bitcode.Encoder.encode libm));
        Ok libm)
  in
  match Cache.find t.cache key with
  | Some bytes -> (
    match Llvm_bitcode.Decoder.decode bytes with
    | m -> Ok m
    | exception Llvm_bitcode.Decoder.Malformed _ ->
      (* the image passed its checksum but does not decode (e.g. a bug
         wrote garbage under this key): self-heal by recomputing *)
      Cache.remove t.cache key;
      rebuild ())
  | None -> rebuild ()

(* Apps and libs are loaded once here: both digests fold into the key,
   and the library modules feed the IPO pipeline on a miss.  The route
   is the library set, so IPO runs once per set in one worker. *)
let plan_link (t : t) (l : Protocol.link_req) : (plan, string) result =
  let { Protocol.l_apps; l_libs; l_validate } = l in
  let validate = l_validate || t.cfg.validate in
  if l_apps = [] then Error "link request with no modules"
  else
    match load_set ~what:"link apps" l_apps with
    | Error e -> Error e
    | Ok (apps, apps_digest) -> (
      match load_set ~what:"link libs" l_libs with
      | Error e -> Error e
      | Ok (lib_mods, libs_digest) ->
        (* the reference: everything re-loaded fresh, linked, never
           optimized *)
        let reference () =
          Result.bind (load_set ~what:"link reference" (l_apps @ l_libs))
            (fun (mods, _) -> link ~name:"reference" mods)
        in
        let build ~deadline =
          let t0 = Protocol.now () in
          let libm =
            if l_libs = [] then Ok []
            else
              Result.map (fun m -> [ m ])
                (optimized_libs t ?deadline lib_mods libs_digest)
          in
          match
            Result.bind libm (fun libm -> link ~name:"served" (apps @ libm))
          with
          | Error e -> Error (Protocol.Failed e)
          | Ok final ->
            Faults.pipeline_start ();
            ignore
              (Llvm_transforms.Pass.run_sequence ~hooks:(pass_hooks deadline)
                 Llvm_transforms.Pipelines.per_module final);
            finish t ~deadline ~t0 ~validate
              ~invalid:"link pipeline produced an invalid module" ~what:"link"
              ~reference final
        in
        Ok
          { key =
              Llvm_bitcode.Digest.of_bytes (apps_digest ^ "|" ^ libs_digest)
              ^ (if l_libs = [] then "|nolibs" else "|libs")
              ^ "|link"
              ^ if validate then "|v" else "";
            route = Some libs_digest;
            build })

(* The one place request cache keys are made, for [handle] and [probe]
   alike.  A Run compiles through the compile plan, unvalidated. *)
let plan (t : t) (body : Protocol.body) : (plan, string) result =
  match body with
  | Protocol.Compile c ->
    plan_compile t ~validate:c.Protocol.c_validate c.Protocol.c_payload
      c.Protocol.c_pipeline
  | Protocol.Run r ->
    plan_compile t ~validate:false r.Protocol.r_payload r.Protocol.r_pipeline
  | Protocol.Lint payload -> plan_module t ~what:"lint request" Lint payload
  | Protocol.Link l -> plan_link t l
  | Protocol.Stats | Protocol.Ping | Protocol.Shutdown ->
    Error "not a cacheable request"

(* The one cache lookup on request keys. *)
let cache_hit (t : t) (p : plan) : Protocol.response option =
  match Cache.find t.cache p.key with
  | Some bytes -> Some (served t ~hit:true ~key:p.key ~pipeline_ms:0.0 bytes)
  | None -> None

(* Answer a planned request: a hit is served as is; a miss builds,
   caches and serves. *)
let lookup (t : t) ~(deadline : float option) (p : (plan, string) result) :
    Protocol.response =
  match p with
  | Error e -> Protocol.Failed e
  | Ok p -> (
    match cache_hit t p with
    | Some resp -> resp
    | None -> (
      match p.build ~deadline with
      | Error resp -> resp
      | Ok (bytes, pipeline_ms) ->
        Cache.put t.cache p.key bytes;
        served t ~hit:false ~key:p.key ~pipeline_ms bytes))

(* -- Run ------------------------------------------------------------------------ *)

(* Execute a Run request's [compiled] image (the compile plan's answer). *)
let handle_run ~(deadline : float option) (r : Protocol.run_req)
    (compiled : Protocol.response) : Protocol.response =
  match compiled with
  | (Protocol.Failed _ | Protocol.Rejected _ | Protocol.Timed_out _
    | Protocol.Busy _) as e ->
    e
  | Protocol.Served { payload = bytes; metrics } -> (
    check_deadline deadline;
    match Llvm_bitcode.Decoder.decode bytes with
    | exception Llvm_bitcode.Decoder.Malformed e ->
      Protocol.Failed ("corrupt optimized image: " ^ e)
    | m ->
      let result, _ =
        Engine.run_main ~fuel:r.Protocol.r_fuel r.Protocol.r_engine m
      in
      let status =
        match result.Interp.status with
        | `Returned _ -> "returned"
        | `Exited _ -> "exited"
        | `Unwound -> "unwound"
        | `Trapped msg -> "trapped: " ^ msg
      in
      let reply =
        Protocol.encode_run_reply
          { Protocol.status; exit_code = Interp.exit_code result.Interp.status;
            output = result.Interp.output;
            instructions = result.Interp.instructions }
      in
      Protocol.Served { payload = reply; metrics })

(* -- Stats ----------------------------------------------------------------------- *)

let record_latency (t : t) (seconds : float) : unit =
  let us = max 1 (int_of_float (seconds *. 1e6)) in
  let bucket = min (lat_buckets - 1) (int_of_float (Float.log2 (float_of_int us))) in
  t.lat.(bucket) <- t.lat.(bucket) + 1;
  t.lat_count <- t.lat_count + 1;
  if us > t.lat_max_us then t.lat_max_us <- us

(* Quantile estimate from the log2 histogram: the upper bound of the
   bucket where the cumulative count crosses q. *)
let latency_quantile_ms (t : t) (q : float) : float =
  if t.lat_count = 0 then 0.0
  else begin
    let target =
      int_of_float (Float.round (q *. float_of_int t.lat_count))
    in
    let target = max 1 target in
    let acc = ref 0 and result = ref (float_of_int t.lat_max_us /. 1000.0) in
    (try
       for b = 0 to lat_buckets - 1 do
         acc := !acc + t.lat.(b);
         if !acc >= target then begin
           result := float_of_int (1 lsl (b + 1)) /. 1000.0;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

(* [extra] is raw JSON spliced in as additional top-level fields — the
   daemon uses it to report supervision state (workers, restarts, shed
   counts, breaker) alongside the server's own counters. *)
let stats_json ?(extra : (string * string) list = []) (t : t) : string =
  let b = Buffer.create 1024 in
  let j fmt = Printf.bprintf b fmt in
  j "{\n";
  j "  \"uptime_s\": %.3f,\n" (Protocol.now () -. t.started);
  j
    "  \"requests\": {\"compile\": %d, \"link\": %d, \"run\": %d, \"lint\": \
     %d, \"stats\": %d, \"ping\": %d, \"total\": %d, \"failed\": %d, \
     \"rejected\": %d, \"timed_out\": %d},\n"
    t.ctr.c_compile t.ctr.c_link t.ctr.c_run t.ctr.c_lint t.ctr.c_stats
    t.ctr.c_ping (requests t) t.ctr.c_failed t.ctr.c_rejected
    t.ctr.c_timed_out;
  j "  \"validation_rejects\": %d,\n" t.validation_rejects;
  j
    "  \"cache\": {\"hit_rate\": %.4f, \"hits\": %d, \"misses\": %d, \
     \"evictions\": %d, \"entries\": %d, \"bytes\": %d, \"corrupt\": %d,\n"
    (Cache.hit_rate t.cache) (Cache.hits t.cache) (Cache.misses t.cache)
    (Cache.evictions t.cache) (Cache.entries t.cache) (Cache.bytes t.cache)
    (Cache.corrupt t.cache);
  j "    \"shards\": [\n";
  let stats = Cache.shard_stats t.cache in
  Array.iteri
    (fun k (s : Cache.shard_stats) ->
      let rate =
        if s.Cache.s_hits + s.Cache.s_misses = 0 then 0.0
        else
          float_of_int s.Cache.s_hits
          /. float_of_int (s.Cache.s_hits + s.Cache.s_misses)
      in
      j
        "      {\"shard\": %d, \"entries\": %d, \"bytes\": %d, \"budget\": \
         %d, \"hits\": %d, \"misses\": %d, \"puts\": %d, \"evictions\": %d, \
         \"oversize\": %d, \"corrupt\": %d, \"hit_rate\": %.4f}%s\n"
        k s.Cache.s_entries s.Cache.s_bytes s.Cache.s_budget s.Cache.s_hits
        s.Cache.s_misses s.Cache.s_puts s.Cache.s_evictions s.Cache.s_oversize
        s.Cache.s_corrupt rate
        (if k = Array.length stats - 1 then "" else ","))
    stats;
  j "    ]},\n";
  j "  \"index\": {\"entries\": %d, \"hits\": %d},\n" (index_entries t) t.index_hits;
  (* the serving process's own heap, so its RSS can be explained *)
  let gc = Gc.quick_stat () in
  j
    "  \"gc\": {\"heap_words\": %d, \"top_heap_words\": %d, \
     \"minor_collections\": %d, \"major_collections\": %d},\n"
    gc.Gc.heap_words gc.Gc.top_heap_words gc.Gc.minor_collections
    gc.Gc.major_collections;
  j
    "  \"latency\": {\"count\": %d, \"p50_ms\": %.3f, \"p90_ms\": %.3f, \
     \"p99_ms\": %.3f, \"max_ms\": %.3f}%s\n"
    t.lat_count
    (latency_quantile_ms t 0.50)
    (latency_quantile_ms t 0.90)
    (latency_quantile_ms t 0.99)
    (float_of_int t.lat_max_us /. 1000.0)
    (if extra = [] then "" else ",");
  List.iteri
    (fun i (name, json) ->
      j "  %S: %s%s\n" name json
        (if i = List.length extra - 1 then "" else ","))
    extra;
  j "}\n";
  Buffer.contents b

(* -- Dispatch ------------------------------------------------------------------- *)

let do_handle (t : t) ~(deadline : float option) (body : Protocol.body) :
    Protocol.response =
  match body with
  | Protocol.Compile _ ->
    t.ctr.c_compile <- t.ctr.c_compile + 1;
    lookup t ~deadline (plan t body)
  | Protocol.Link _ ->
    t.ctr.c_link <- t.ctr.c_link + 1;
    lookup t ~deadline (plan t body)
  | Protocol.Run r ->
    t.ctr.c_run <- t.ctr.c_run + 1;
    handle_run ~deadline r (lookup t ~deadline (plan t body))
  | Protocol.Lint _ ->
    t.ctr.c_lint <- t.ctr.c_lint + 1;
    lookup t ~deadline (plan t body)
  | Protocol.Stats ->
    t.ctr.c_stats <- t.ctr.c_stats + 1;
    Protocol.Served
      { payload = stats_json t; metrics = Protocol.no_metrics }
  | Protocol.Ping ->
    t.ctr.c_ping <- t.ctr.c_ping + 1;
    Protocol.Served { payload = "pong"; metrics = Protocol.no_metrics }
  | Protocol.Shutdown ->
    (* acknowledged here; the daemon owns actually stopping *)
    Protocol.Served { payload = "shutting down"; metrics = Protocol.no_metrics }

(* The request's wall-clock budget, measured from now. *)
let deadline_of (req : Protocol.request) : float option =
  if req.Protocol.deadline_ms <= 0 then None
  else
    Some (Protocol.now () +. (float_of_int req.Protocol.deadline_ms /. 1000.0))

let handle (t : t) (req : Protocol.request) : Protocol.response =
  let t0 = Protocol.now () in
  let deadline = deadline_of req in
  (* a request must never take the daemon down: anything a handler
     fails to turn into a clean error becomes a Failed response *)
  let resp =
    try do_handle t ~deadline req.Protocol.body with
    | Deadline_expired ->
      Protocol.Timed_out
        (Fmt.str "deadline of %d ms expired" req.Protocol.deadline_ms)
    | e -> Protocol.Failed ("internal error: " ^ Printexc.to_string e)
  in
  record_latency t (Protocol.now () -. t0);
  (match resp with
  | Protocol.Failed _ -> t.ctr.c_failed <- t.ctr.c_failed + 1
  | Protocol.Rejected _ -> t.ctr.c_rejected <- t.ctr.c_rejected + 1
  | Protocol.Timed_out _ -> t.ctr.c_timed_out <- t.ctr.c_timed_out + 1
  | Protocol.Served _ | Protocol.Busy _ -> ());
  resp

(* Requests answered in order, each on its own.  Kept for callers
   outside the library that answer a list at once (the e2ebench serve
   workload); IPO already runs once per library set through the
   "libs-ipo" cache entry. *)
let handle_batch (t : t) (reqs : Protocol.request list) :
    Protocol.response list =
  List.map (handle t) reqs

(* -- Cache probing (worker supervision support) --------------------------------- *)

(* With forked workers the daemon keeps a "front" server whose cache
   spans all workers: before dispatching, it probes here — a [Hit] is
   answered without touching a worker (and is the only thing served in
   degraded mode); a [Miss] carries the key under which the daemon
   should [install] the worker's result.  [route] is an affinity hint:
   requests sharing it go to the same worker, so link-time IPO still
   runs once per library set in that worker's local cache. *)
type probe =
  | Hit of Protocol.response
  | Miss of { key : string; route : string option }
  | Uncached of { route : string option }

let do_probe (t : t) (body : Protocol.body) : probe =
  match body with
  | Protocol.Run r ->
    (* execution is never served from the front cache: the optimized
       image may be cached, but running it must happen in a worker *)
    Uncached { route = Some (Llvm_bitcode.Digest.of_bytes r.Protocol.r_payload) }
  | _ -> (
    match plan t body with
    | Error _ -> Uncached { route = None }
    | Ok p -> (
      match cache_hit t p with
      | Some resp -> Hit resp
      | None -> Miss { key = p.key; route = p.route }))

let probe (t : t) (req : Protocol.request) : probe =
  (* probing parses untrusted payloads in the daemon process: any
     escape (stack overflow on a pathological input, say) must degrade
     to "not cached", never take the accept loop down *)
  try do_probe t req.Protocol.body with _ -> Uncached { route = None }

(* Install a worker's freshly computed result into the front cache so
   other workers' clients can hit it. *)
let install (t : t) ~(key : string) (resp : Protocol.response) : unit =
  match resp with
  | Protocol.Served { payload; _ } -> Cache.put t.cache key payload
  | _ -> ()
