(* Tests for the compilation-as-a-service layer (lib/serve): the
   content digest, the sharded LRU cache, the wire protocol, the server
   request handlers (differential byte-identity against direct pipeline
   runs, content addressing across .ll/.bc deliveries, validation
   rejection of a known-bad pass), forked end-to-end daemon socket
   tests, and the fault-tolerance layer: deadline-bounded framing,
   request deadlines, cache integrity self-healing, worker crash
   isolation and respawn, overload shedding with client retry,
   circuit-breaker degraded mode, and graceful shutdown / socket
   claiming. *)

open Llvm_serve

let encode (m : Llvm_ir.Ir.modul) : string =
  fst (Llvm_bitcode.Encoder.encode m)

let minic ~name src = Llvm_minic.Codegen.compile_string ~name src

let sample_module ?(name = "sample") () : Llvm_ir.Ir.modul =
  minic ~name
    {|
int work(int x) {
  int acc = x;
  for (int i = 0; i < 10; i++) { acc = acc + i * x; }
  return acc;
}
int main() {
  int a = work(17);
  int b = work(5);
  return a - b;
}
|}

(* -- Digest ------------------------------------------------------------------- *)

let test_digest_deterministic () =
  for seed = 1 to 10 do
    let m = Llvm_fuzz.Irgen.gen_module seed in
    let bytes = encode m in
    let d1 = Llvm_bitcode.Digest.of_module m in
    let d2 = Llvm_bitcode.Digest.of_module m in
    Alcotest.(check string)
      (Printf.sprintf "of_module is deterministic (seed %d)" seed)
      d1 d2;
    (* digesting must not disturb the module *)
    Alcotest.(check string)
      (Printf.sprintf "module unchanged by digesting (seed %d)" seed)
      bytes (encode m);
    (* decode → re-digest: same program, same identity *)
    let m' = Llvm_bitcode.Decoder.decode bytes in
    Alcotest.(check string)
      (Printf.sprintf "digest survives encode/decode (seed %d)" seed)
      d1
      (Llvm_bitcode.Digest.of_module m')
  done

let test_digest_discriminates () =
  (* digest-equal iff canonical-byte-equal, over fuzzer-generated
     modules (the canonical form is the stripped, name-blanked
     encoding that of_module digests) *)
  let images =
    List.init 12 (fun i ->
        let m = Llvm_fuzz.Irgen.gen_module (i + 1) in
        m.Llvm_ir.Ir.mname <- "";
        ( fst (Llvm_bitcode.Encoder.encode ~strip:true m),
          Llvm_bitcode.Digest.of_module m ))
  in
  List.iteri
    (fun i (bi, di) ->
      List.iteri
        (fun j (bj, dj) ->
          Alcotest.(check bool)
            (Printf.sprintf "digest-equal iff byte-equal (%d vs %d)" i j)
            (String.equal bi bj) (String.equal di dj))
        images)
    images

let test_digest_ignores_module_name () =
  let m1 = sample_module ~name:"alpha" () in
  let m2 = sample_module ~name:"beta" () in
  Alcotest.(check bool)
    "different names, different images" false
    (String.equal (encode m1) (encode m2));
  Alcotest.(check string) "same digest"
    (Llvm_bitcode.Digest.of_module m1)
    (Llvm_bitcode.Digest.of_module m2)

(* -- Cache -------------------------------------------------------------------- *)

let test_cache_hit_after_put () =
  let c = Cache.create ~shards:4 ~shard_bytes:4096 () in
  Alcotest.(check (option string)) "miss before put" None (Cache.find c "k");
  Cache.put c "k" "value";
  Alcotest.(check (option string)) "hit after put" (Some "value")
    (Cache.find c "k");
  Cache.put c "k" "other";
  Alcotest.(check (option string)) "put replaces" (Some "other")
    (Cache.find c "k");
  Alcotest.(check int) "one entry" 1 (Cache.entries c);
  Alcotest.(check int) "hits" 2 (Cache.hits c);
  Alcotest.(check int) "misses" 1 (Cache.misses c)

let test_cache_lru_eviction_order () =
  (* one shard, 10-byte budget, 4-byte values: 2 entries fit *)
  let c = Cache.create ~shards:1 ~shard_bytes:10 () in
  Cache.put c "a" "aaaa";
  Cache.put c "b" "bbbb";
  Alcotest.(check (list string)) "MRU order after puts" [ "b"; "a" ]
    (Cache.keys_mru_first c 0);
  (* touching [a] makes [b] the eviction candidate *)
  ignore (Cache.find c "a");
  Cache.put c "c" "cccc";
  Alcotest.(check (list string)) "LRU entry evicted" [ "c"; "a" ]
    (Cache.keys_mru_first c 0);
  Alcotest.(check (option string)) "b gone" None (Cache.find c "b");
  Alcotest.(check (option string)) "a survives" (Some "aaaa")
    (Cache.find c "a");
  Alcotest.(check int) "one eviction" 1 (Cache.evictions c);
  (* an entry bigger than the whole shard is never admitted *)
  Cache.put c "big" (String.make 11 'x');
  Alcotest.(check (option string)) "oversize rejected" None
    (Cache.find c "big");
  Alcotest.(check int) "survivors untouched" 2 (Cache.entries c)

let test_cache_shard_assignment () =
  let c = Cache.create ~shards:8 ~shard_bytes:4096 () in
  let keys =
    List.init 200 (fun i -> Printf.sprintf "digest%04d|O2" i)
  in
  let counts = Array.make 8 0 in
  List.iter
    (fun k ->
      let s = Cache.shard_of c k in
      Alcotest.(check bool) "shard in range" true (s >= 0 && s < 8);
      Alcotest.(check int) "assignment is stable" s (Cache.shard_of c k);
      counts.(s) <- counts.(s) + 1)
    keys;
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d is used (got %d keys)" i n)
        true (n > 0))
    counts;
  (* entries land on the shard their key maps to *)
  List.iter (fun k -> Cache.put c k "v") keys;
  let stats = Cache.shard_stats c in
  Array.iteri
    (fun i (s : Cache.shard_stats) ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d occupancy matches assignment" i)
        counts.(i) s.Cache.s_entries)
    stats

(* -- Protocol ----------------------------------------------------------------- *)

let roundtrip_request (r : Protocol.request) =
  match Protocol.decode_request (Protocol.encode_request r) with
  | Ok r' -> Alcotest.(check bool) "request roundtrips" true (r = r')
  | Error e -> Alcotest.failf "request failed to decode: %s" e

let roundtrip_response (r : Protocol.response) =
  match Protocol.decode_response (Protocol.encode_response r) with
  | Ok r' -> Alcotest.(check bool) "response roundtrips" true (r = r')
  | Error e -> Alcotest.failf "response failed to decode: %s" e

let test_protocol_roundtrip () =
  roundtrip_request
    (Protocol.req
       (Protocol.Compile
          { c_payload = "\x00\x01binary\xffpayload";
            c_pipeline = Protocol.Level 3;
            c_validate = true }));
  roundtrip_request
    (Protocol.req ~deadline_ms:750
       (Protocol.Compile
          { c_payload = "";
            c_pipeline = Protocol.Passes [ "gvn"; "dce" ];
            c_validate = false }));
  roundtrip_request
    (Protocol.req
       (Protocol.Link
          { l_apps = [ "app1"; "app2" ]; l_libs = [ "lib" ];
            l_validate = true }));
  roundtrip_request
    (Protocol.req ~deadline_ms:1
       (Protocol.Run
          { r_payload = "prog";
            r_pipeline = Protocol.Level 2;
            r_fuel = 123_456;
            r_engine = Llvm_exec.Engine.Tiered }));
  roundtrip_request (Protocol.req (Protocol.Lint "module"));
  roundtrip_request (Protocol.req Protocol.Stats);
  roundtrip_request (Protocol.req Protocol.Ping);
  roundtrip_request (Protocol.req Protocol.Shutdown);
  roundtrip_response
    (Protocol.Served
       { payload = "bytes";
         metrics =
           { m_hit = true; m_shard = 5; m_pipeline_ms = 1.25; m_bytes = 5 } });
  roundtrip_response (Protocol.Rejected "witness diverged");
  roundtrip_response (Protocol.Failed "no such pass");
  roundtrip_response (Protocol.Timed_out "deadline of 250 ms expired");
  roundtrip_response (Protocol.Busy { retry_after_ms = 75 });
  let reply =
    { Protocol.status = "returned"; exit_code = 42; output = "hi\n";
      instructions = 1234 }
  in
  (match Protocol.decode_run_reply (Protocol.encode_run_reply reply) with
  | Ok r -> Alcotest.(check bool) "run reply roundtrips" true (r = reply)
  | Error e -> Alcotest.failf "run reply failed to decode: %s" e);
  (* pipeline spec strings are stable (they are cache-key components) *)
  Alcotest.(check string) "level spec" "O2"
    (Protocol.pipeline_to_string (Protocol.Level 2));
  Alcotest.(check string) "passes spec" "passes:gvn,dce"
    (Protocol.pipeline_to_string (Protocol.Passes [ "gvn"; "dce" ]))

(* The "O<l>" pipeline specs name exactly the levels Pipelines defines. *)
let test_protocol_pipeline_levels () =
  List.iter
    (fun l ->
      let spec = Printf.sprintf "O%d" l in
      match Protocol.pipeline_of_string spec with
      | Ok p -> Alcotest.(check string) (spec ^ " roundtrips") spec (Protocol.pipeline_to_string p)
      | Error e -> Alcotest.failf "%s rejected: %s" spec e)
    [ 0; 1; 2; 3 ];
  List.iter
    (fun spec ->
      match Protocol.pipeline_of_string spec with
      | Ok _ -> Alcotest.failf "%s accepted" spec
      | Error e ->
        Alcotest.(check string) (spec ^ " rejected")
          (Printf.sprintf "bad optimization level %S" spec)
          e)
    [ "O4"; "O-1"; "Ox" ]

(* Golden wire bytes.  Clients, workers and stored profiles outlive any
   one build of the codecs, so a change that moves a single byte of a
   message below is a format change, not a refactor.  The table holds
   (label, hex of the encoded bytes): one row per request tag, one per
   response tag, a run reply and a small [.llpf] profile. *)
let golden_messages () : (string * string) list =
  let rq label ?deadline_ms body =
    (label, Protocol.encode_request (Protocol.req ?deadline_ms body))
  in
  let rs label r = (label, Protocol.encode_response r) in
  let profile =
    let p = Llvm_profile.Profile.empty () in
    p.runs <- 3;
    Hashtbl.replace p.blocks "main\tentry" 3;
    Hashtbl.replace p.blocks "main\tloop" 40;
    let targets = Hashtbl.create 2 in
    Hashtbl.replace targets "leaf" 7;
    Hashtbl.replace targets "twig" 2;
    Hashtbl.replace p.calls "main\tloop\t0" targets;
    Llvm_profile.Profile.to_bytes p
  in
  [ rq "compile" ~deadline_ms:250
      (Protocol.Compile
         { c_payload = "LLVM\x01"; c_pipeline = Protocol.Level 2;
           c_validate = true });
    rq "link"
      (Protocol.Link
         { l_apps = [ "a"; "bc" ]; l_libs = [ "lib" ]; l_validate = false });
    rq "run" ~deadline_ms:1
      (Protocol.Run
         { r_payload = "prog"; r_pipeline = Protocol.Passes [ "gvn"; "dce" ];
           r_fuel = 123_456; r_engine = Llvm_exec.Engine.Bytecode_tier });
    rq "lint" (Protocol.Lint "m");
    rq "stats" Protocol.Stats;
    rq "ping" Protocol.Ping;
    rq "shutdown" Protocol.Shutdown;
    rs "served"
      (Protocol.Served
         { payload = "out";
           metrics =
             { m_hit = true; m_shard = 5; m_pipeline_ms = 1.25; m_bytes = 3 } });
    rs "served, no shard"
      (Protocol.Served { payload = ""; metrics = Protocol.no_metrics });
    rs "rejected" (Protocol.Rejected "witness");
    rs "failed" (Protocol.Failed "no such pass");
    rs "timed out" (Protocol.Timed_out "late");
    rs "busy" (Protocol.Busy { retry_after_ms = 75 });
    ( "run reply",
      Protocol.encode_run_reply
        { status = "returned"; exit_code = -1; output = "hi\n";
          instructions = 1234 } );
    ("profile", profile) ]

let golden_wire_hex =
  [ ("compile", "000000fa01000000054c4c564d01000000024f3201");
    ( "link",
      "000000000200000002000000016100000002626300000001000000036c696200" );
    ( "run",
      "00000001030000000470726f670000000e7061737365733a67766e2c64636500"
      ^ "0000000001e24001" );
    ("lint", "0000000004000000016d");
    ("stats", "0000000005");
    ("ping", "0000000007");
    ("shutdown", "0000000006");
    ("served", "01000000036f75740100000005003ff400000000000000000003");
    ("served, no shard", "0100000000000000ffff01000000000000000000000000");
    ("rejected", "02000000077769746e657373");
    ("failed", "030000000c6e6f20737563682070617373");
    ("timed out", "04000000046c617465");
    ("busy", "050000004b");
    ( "run reply",
      "0000000872657475726e65640000ffff0000000368690a00000000000004d2" );
    ( "profile",
      "4c4c504601030000000000000002000000000000000a000000000000006d6169"
      ^ "6e09656e747279030000000000000009000000000000006d61696e096c6f6f70"
      ^ "280000000000000001000000000000000b000000000000006d61696e096c6f6f"
      ^ "700930020000000000000004000000000000006c656166070000000000000004"
      ^ "00000000000000747769670200000000000000" ) ]

let test_protocol_golden_bytes () =
  let hex s =
    String.concat ""
      (List.init (String.length s) (fun k ->
           Printf.sprintf "%02x" (Char.code s.[k])))
  in
  let got = List.map (fun (label, s) -> (label, hex s)) (golden_messages ()) in
  if got <> golden_wire_hex then
    Alcotest.failf "wire bytes changed; the codecs now give:\n%s"
      (String.concat "\n"
         (List.map (fun (l, h) -> Printf.sprintf "    (%S, %S);" l h) got))

let test_protocol_framing () =
  let r, w = Unix.pipe () in
  (* one frame in flight at a time, each smaller than any pipe buffer:
     the writer would block otherwise (no concurrent reader here) *)
  let msgs = [ "short"; String.make 2_000 'z'; "" ] in
  List.iter
    (fun expected ->
      Protocol.write_frame w expected;
      match Protocol.read_frame r with
      | Some got ->
        Alcotest.(check bool) "frame roundtrips" true (String.equal expected got)
      | None -> Alcotest.fail "unexpected EOF")
    msgs;
  Unix.close w;
  Alcotest.(check bool) "EOF after close" true (Protocol.read_frame r = None);
  Unix.close r

let test_protocol_oversize () =
  (* a header announcing more than max_frame is an oversize rejection,
     not a clean EOF: the daemon answers before closing *)
  let r, w = Unix.pipe () in
  let len = Protocol.max_frame + 1 in
  let hdr =
    Bytes.init 4 (fun i -> Char.chr ((len lsr (8 * (3 - i))) land 0xff))
  in
  ignore (Unix.write w hdr 0 4);
  (match Protocol.read_frame r with
  | exception Protocol.Oversized_frame n ->
    Alcotest.(check int) "announced length is reported" len n
  | Some _ -> Alcotest.fail "oversized frame accepted"
  | None -> Alcotest.fail "oversize mistaken for EOF");
  Unix.close w;
  Unix.close r

(* -- Server ------------------------------------------------------------------- *)

let compile_req ?(validate = false) ?(pipeline = Protocol.Level 2)
    ?deadline_ms payload : Protocol.request =
  Protocol.req ?deadline_ms
    (Protocol.Compile
       { c_payload = payload; c_pipeline = pipeline; c_validate = validate })

let expect_served what (r : Protocol.response) =
  match r with
  | Protocol.Served { payload; metrics } -> (payload, metrics)
  | Protocol.Rejected why -> Alcotest.failf "%s: rejected: %s" what why
  | Protocol.Failed e -> Alcotest.failf "%s: failed: %s" what e
  | Protocol.Timed_out why -> Alcotest.failf "%s: timed out: %s" what why
  | Protocol.Busy _ -> Alcotest.failf "%s: busy" what

let undefined_type_payload =
  "void %f(%T* %p) {\nentry:\n  store int 0, %T* %p\n  ret void\n}"

(* A payload that names an undefined type fails verification with the
   verifier's message, not an internal error. *)
let test_server_reports_verifier_message () =
  let server = Server.create () in
  match Server.handle server (compile_req undefined_type_payload) with
  | Protocol.Failed e ->
    Alcotest.(check string) "verifier message"
      "compile request: verification failed: f: undefined type %T" e
  | _ -> Alcotest.fail "an unverifiable payload was not refused"

(* A payload that violates SSA dominance is refused by the server's
   verify step, for a compile and for a run, before any pipeline or
   engine sees it. *)
let test_server_rejects_ssa_violation () =
  let server = Server.create () in
  let payload = encode (Samples.ssa_violation_module ()) in
  let run_req =
    Protocol.req
      (Protocol.Run
         { r_payload = payload; r_pipeline = Protocol.Level 2;
           r_fuel = 1_000_000; r_engine = Llvm_exec.Engine.Tiered })
  in
  List.iter
    (fun (what, req) ->
      match Server.handle server req with
      | Protocol.Failed e ->
        (* a run loads its payload as a compile does *)
        Alcotest.(check string) (what ^ ": verifier message")
          ("compile request: verification failed: " ^ Samples.ssa_violation_error)
          e
      | _ -> Alcotest.failf "%s: an SSA violation was not refused" what)
    [ ("compile", compile_req payload); ("run", run_req) ]

let test_server_compile_differential () =
  let server = Server.create () in
  let m = sample_module () in
  let payload = encode m in
  let served1, m1 =
    expect_served "first compile" (Server.handle server (compile_req payload))
  in
  Alcotest.(check bool) "first request is a miss" false m1.Protocol.m_hit;
  (* served bytes must be identical to a direct -O2 run *)
  let direct = Llvm_bitcode.Decoder.decode payload in
  Llvm_transforms.Pipelines.optimize_module ~level:2 direct;
  Alcotest.(check bool) "served = direct pipeline run" true
    (String.equal (encode direct) served1);
  (* the second identical request is a hit serving identical bytes *)
  let served2, m2 =
    expect_served "second compile" (Server.handle server (compile_req payload))
  in
  Alcotest.(check bool) "second request is a hit" true m2.Protocol.m_hit;
  Alcotest.(check bool) "hit serves identical bytes" true
    (String.equal served1 served2);
  Alcotest.(check bool) "shard is reported" true (m2.Protocol.m_shard >= 0)

let test_server_every_level_matches_direct () =
  let server = Server.create () in
  let payload = encode (sample_module ()) in
  List.iter
    (fun level ->
      let served, _ =
        expect_served
          (Printf.sprintf "-O%d compile" level)
          (Server.handle server (compile_req ~pipeline:(Protocol.Level level) payload))
      in
      let direct = Llvm_bitcode.Decoder.decode payload in
      Llvm_transforms.Pipelines.optimize_module ~level direct;
      Alcotest.(check bool)
        (Printf.sprintf "-O%d: served = direct pipeline run" level)
        true
        (String.equal (encode direct) served))
    [ 0; 1; 2; 3 ]

let test_server_content_addressing () =
  (* the same program delivered as .ll text and as bitcode shares one
     cache line, on first sight and when each form is indexed *)
  let server = Server.create () in
  let m = sample_module () in
  let deliveries =
    [ ("bitcode delivery", encode m); ("text delivery", Llvm_ir.Printer.module_to_string m) ]
  in
  let hits =
    List.map
      (fun (what, payload) ->
        (snd (expect_served what (Server.handle server (compile_req payload)))).Protocol.m_hit)
      (deliveries @ deliveries)
  in
  Alcotest.(check (list bool)) "only the first delivery misses" [ false; true; true; true ] hits;
  Alcotest.(check int) "each raw form indexed" 2 (Server.index_entries server);
  Alcotest.(check int) "repeats keyed by the index" 2 (Server.index_hits server);
  Alcotest.(check int) "one cache entry" 1 (Cache.entries (Server.cache server))

let test_server_pipeline_spec_keys () =
  (* a different pipeline spec is a different cache key *)
  let server = Server.create () in
  let payload = encode (sample_module ()) in
  let _, m1 =
    expect_served "O2"
      (Server.handle server (compile_req ~pipeline:(Protocol.Level 2) payload))
  in
  let _, m2 =
    expect_served "O3"
      (Server.handle server (compile_req ~pipeline:(Protocol.Level 3) payload))
  in
  let _, m3 =
    expect_served "explicit passes"
      (Server.handle server
         (compile_req ~pipeline:(Protocol.Passes [ "dce" ]) payload))
  in
  Alcotest.(check bool) "O2 misses" false m1.Protocol.m_hit;
  Alcotest.(check bool) "O3 misses despite cached O2" false m2.Protocol.m_hit;
  Alcotest.(check bool) "pass list misses despite cached O2/O3" false
    m3.Protocol.m_hit;
  (* validated results live under their own keys *)
  let _, m4 =
    expect_served "validated"
      (Server.handle server (compile_req ~validate:true payload))
  in
  Alcotest.(check bool) "validating request cannot hit unvalidated entry"
    false m4.Protocol.m_hit;
  match Server.handle server (compile_req payload) with
  | Protocol.Served { metrics; _ } ->
    Alcotest.(check bool) "plain O2 still cached" true metrics.Protocol.m_hit
  | r ->
    Alcotest.failf "unexpected response: %s"
      (match r with
      | Protocol.Rejected w -> "rejected " ^ w
      | Protocol.Failed e -> "failed " ^ e
      | _ -> "?")

let test_server_rejects_miscompile () =
  (* the fuzzer's deliberately wrong pass (registered as
     inject-sub-swap) must be caught by the witness and rejected —
     and served unvalidated, because the pass is structurally legal *)
  let _ = Llvm_fuzz.Oracle.injected_bug_pass in
  let server = Server.create () in
  let payload = encode (sample_module ()) in
  let bad = Protocol.Passes [ "inject-sub-swap" ] in
  (match
     Server.handle server (compile_req ~validate:true ~pipeline:bad payload)
   with
  | Protocol.Rejected why ->
    Alcotest.(check bool) "reject names translation validation" true
      (Astring_contains.contains why "translation validation");
    (* the full witness text: main returns 782 - 230; swapped, 230 - 782 *)
    Alcotest.(check string) "witness text"
      "translation validation failed for passes:inject-sub-swap: status diverged: \
       \"returned 552\" before, \"returned -552\" after"
      why
  | Protocol.Served _ -> Alcotest.fail "miscompile was served"
  | Protocol.Failed e -> Alcotest.failf "unexpected failure: %s" e
  | r -> ignore (expect_served "miscompile" r));
  Alcotest.(check int) "reject counted" 1 (Server.validation_rejects server);
  (* a rejection is never cached: retrying still rejects (no stale hit) *)
  (match
     Server.handle server (compile_req ~validate:true ~pipeline:bad payload)
   with
  | Protocol.Rejected _ -> ()
  | _ -> Alcotest.fail "second attempt not rejected");
  (* an honest pipeline under validation is served *)
  ignore
    (expect_served "validated O2"
       (Server.handle server (compile_req ~validate:true payload)))

let test_server_run_and_lint () =
  let server = Server.create () in
  let m =
    minic ~name:"runner"
      {|
int main() {
  int acc = 0;
  for (int i = 1; i <= 10; i++) acc = acc + i;
  return acc;
}
|}
  in
  let payload = encode m in
  let reply, _ =
    expect_served "run"
      (Server.handle server
         (Protocol.req
            (Protocol.Run
               { r_payload = payload; r_pipeline = Protocol.Level 2;
                 r_fuel = 1_000_000; r_engine = Llvm_exec.Engine.Tiered })))
  in
  (match Protocol.decode_run_reply reply with
  | Error e -> Alcotest.failf "bad run reply: %s" e
  | Ok r ->
    Alcotest.(check string) "status" "returned" r.Protocol.status;
    Alcotest.(check int) "exit code is main's return" 55 r.Protocol.exit_code;
    Alcotest.(check bool) "instructions counted" true
      (r.Protocol.instructions > 0));
  (* lint: served, and cached on repeat *)
  let _, l1 =
    expect_served "lint"
      (Server.handle server (Protocol.req (Protocol.Lint payload)))
  in
  Alcotest.(check bool) "first lint misses" false l1.Protocol.m_hit;
  let _, l2 =
    expect_served "lint again"
      (Server.handle server (Protocol.req (Protocol.Lint payload)))
  in
  Alcotest.(check bool) "second lint hits" true l2.Protocol.m_hit;
  (* stats: a JSON blob with the counters we exercised *)
  let json, _ =
    expect_served "stats" (Server.handle server (Protocol.req Protocol.Stats))
  in
  List.iter
    (fun sub ->
      Alcotest.(check bool)
        (Printf.sprintf "stats mentions %s" sub)
        true
        (Astring_contains.contains json sub))
    [ "\"requests\""; "\"cache\""; "\"index\""; "\"shards\""; "\"latency\"";
      "\"run\": 1"; "\"gc\": {\"heap_words\": "; "\"top_heap_words\": ";
      "\"minor_collections\": "; "\"major_collections\": " ];
  (* quantiles are estimates, but never above the largest latency *)
  let ms key =
    let pat = Printf.sprintf "\"%s\": " key in
    let rec at i =
      if String.sub json i (String.length pat) = pat then i + String.length pat else at (i + 1)
    in
    let k = at 0 in
    Scanf.sscanf (String.sub json k (String.length json - k)) "%f" Fun.id
  in
  Alcotest.(check bool) "p50_ms <= p99_ms <= max_ms" true
    (ms "p50_ms" <= ms "p99_ms" && ms "p99_ms" <= ms "max_ms");
  Alcotest.(check int) "request counter" 4 (Server.requests server)

let test_server_run_trap_exit_code () =
  (* a trapping program answers a Run with the trap and lli's exit 121 *)
  let server = Server.create () in
  let m = minic ~name:"trapper" {| int main() { int z = 0; return 10 / z; } |} in
  let reply, _ =
    expect_served "run"
      (Server.handle server
         (Protocol.req
            (Protocol.Run
               { r_payload = encode m; r_pipeline = Protocol.Level 0;
                 r_fuel = 1_000_000; r_engine = Llvm_exec.Engine.Tiered })))
  in
  match Protocol.decode_run_reply reply with
  | Error e -> Alcotest.failf "bad run reply: %s" e
  | Ok r ->
    Alcotest.(check string) "status" "trapped: integer division by zero"
      r.Protocol.status;
    Alcotest.(check int) "exit code of a trap" 121 r.Protocol.exit_code

(* A library and apps that call into it, for the link tests. *)
let link_lib () =
  encode (minic ~name:"lib" {|
int helper(int x) { return x * 3 + 1; }
|})

let link_app i =
  encode
    (minic ~name:(Printf.sprintf "app%d" i)
       (Printf.sprintf {|
int helper(int x);
int main() { return helper(%d); }
|} i))

(* A validated link of app [i] against [link_lib]. *)
let link_req i =
  Protocol.req
    (Protocol.Link
       { l_apps = [ link_app i ]; l_libs = [ link_lib () ]; l_validate = true })

(* [req]'s image when it is the only request a fresh server answers. *)
let solo_answer (req : Protocol.request) : string =
  fst (expect_served "solo" (Server.handle (Server.create ()) req))

let test_server_links_share_ipo () =
  (* links naming one library run its IPO once, through the libs-ipo
     cache entry, and each is served what it would be served alone *)
  let server = Server.create () in
  for i = 0 to 2 do
    let req = link_req i in
    let served, _ =
      expect_served (Printf.sprintf "link %d" i) (Server.handle server req)
    in
    Alcotest.(check bool)
      (Printf.sprintf "link %d = solo bytes" i)
      true
      (String.equal (solo_answer req) served)
  done;
  let puts =
    Array.fold_left
      (fun acc (s : Cache.shard_stats) -> acc + s.Cache.s_puts)
      0
      (Cache.shard_stats (Server.cache server))
  in
  Alcotest.(check int) "three links and one libs-ipo entry put" 4 puts

let test_server_link_validate_keys () =
  (* as for compile, validated link results live under their own keys:
     a validating link must never hit an entry cached by an earlier
     non-validating link, whose witness was never replayed *)
  let server = Server.create () in
  let lib =
    encode (minic ~name:"lib" {|
int helper(int x) { return x + 2; }
|})
  in
  let app =
    encode
      (minic ~name:"app" {|
int helper(int x);
int main() { return helper(40); }
|})
  in
  let link validate =
    Server.handle server
      (Protocol.req
         (Protocol.Link
            { l_apps = [ app ]; l_libs = [ lib ]; l_validate = validate }))
  in
  let _, m1 = expect_served "unvalidated link" (link false) in
  Alcotest.(check bool) "first link misses" false m1.Protocol.m_hit;
  let v1, m2 = expect_served "validated link" (link true) in
  Alcotest.(check bool) "validating link cannot hit unvalidated entry" false
    m2.Protocol.m_hit;
  let v2, m3 = expect_served "validated link again" (link true) in
  Alcotest.(check bool) "validated entry hits thereafter" true
    m3.Protocol.m_hit;
  Alcotest.(check bool) "hit serves identical bytes" true (String.equal v1 v2);
  let _, m4 = expect_served "unvalidated link again" (link false) in
  Alcotest.(check bool) "unvalidated entry still cached" true
    m4.Protocol.m_hit

(* [probe] (the daemon's front cache) and [handle] must make the same
   key for every cacheable request: a probe miss installed under its
   key is what a later [handle] hits, and a probe hit serves the bytes
   and shard [handle] did. *)
let test_server_probe_agrees_with_handle () =
  let m = sample_module () in
  let lib =
    encode (minic ~name:"lib" {|
int helper(int x) { return x * 3 + 1; }
|})
  in
  let app =
    encode
      (minic ~name:"app" {|
int helper(int x);
int main() { return helper(4); }
|})
  in
  let link apps libs =
    Protocol.Link { l_apps = apps; l_libs = libs; l_validate = false }
  in
  let compile ?validate payload =
    (compile_req ?validate payload).Protocol.body
  in
  let rows =
    [ ("compile .bc", compile (encode m));
      ("compile .ll", compile (Llvm_ir.Printer.module_to_string m));
      ("validated compile", compile ~validate:true (encode m));
      ("lint", Protocol.Lint (encode m));
      ("link with libs", link [ app ] [ lib ]);
      ("link without libs", link [ encode m ] []) ]
  in
  let keys =
    List.map
      (fun (what, body) ->
        let req = Protocol.req body in
        let server = Server.create () in
        let key =
          match Server.probe server req with
          | Server.Miss { key; _ } -> key
          | _ -> Alcotest.failf "%s: a fresh server's probe is not a Miss" what
        in
        let resp = Server.handle server req in
        let payload, metrics = expect_served what resp in
        (match Server.probe server req with
        | Server.Hit hit ->
          let p, mt = expect_served (what ^ ": probe hit") hit in
          Alcotest.(check bool) (what ^ ": probe hit serves handle's bytes")
            true (String.equal payload p);
          Alcotest.(check int) (what ^ ": probe hit reports handle's shard")
            metrics.Protocol.m_shard mt.Protocol.m_shard
        | _ -> Alcotest.failf "%s: probe after handle is not a Hit" what);
        let other = Server.create () in
        Server.install other ~key resp;
        let p, mt =
          expect_served (what ^ ": installed") (Server.handle other req)
        in
        Alcotest.(check bool) (what ^ ": handle hits the installed key") true
          mt.Protocol.m_hit;
        Alcotest.(check bool) (what ^ ": installed bytes served") true
          (String.equal payload p);
        (what, key))
      rows
  in
  Alcotest.(check string) ".bc and .ll deliveries share a key"
    (List.assoc "compile .bc" keys) (List.assoc "compile .ll" keys);
  let server = Server.create () in
  let payload = encode m in
  (match
     Server.probe server
       (Protocol.req
          (Protocol.Run
             { r_payload = payload; r_pipeline = Protocol.Level 2;
               r_fuel = 1000; r_engine = Llvm_exec.Engine.Tiered }))
   with
  | Server.Uncached { route } ->
    Alcotest.(check (option string)) "run routes by its raw payload"
      (Some (Llvm_bitcode.Digest.of_bytes payload)) route
  | _ -> Alcotest.fail "a run probed as cacheable");
  List.iter
    (fun (what, body) ->
      match Server.probe server (Protocol.req body) with
      | Server.Uncached { route = None } -> ()
      | _ -> Alcotest.failf "%s: not Uncached without a route" what)
    [ ("unparseable compile", compile "not a module");
      ("link with no apps", link [] [ lib ]) ]

(* -- The payload index ------------------------------------------------------------ *)

let served_hit what (r : Protocol.response) : string * bool =
  let payload, metrics = expect_served what r in
  (payload, metrics.Protocol.m_hit)

let test_index_one_entry_many_keys () =
  (* one payload under four jobs: one index entry, four cache entries *)
  let server = Server.create () in
  let payload = encode (sample_module ()) in
  let jobs =
    [ ("-O2", compile_req ~pipeline:(Protocol.Level 2) payload);
      ("-O3", compile_req ~pipeline:(Protocol.Level 3) payload);
      ("lint", Protocol.req (Protocol.Lint payload));
      ("validated -O2", compile_req ~validate:true payload) ]
  in
  let first =
    List.map
      (fun (what, req) ->
        let bytes, hit = served_hit what (Server.handle server req) in
        Alcotest.(check bool) (what ^ ": misses on first sight") false hit;
        bytes)
      jobs
  in
  Alcotest.(check int) "one index entry" 1 (Server.index_entries server);
  Alcotest.(check int) "three keys from the index" 3 (Server.index_hits server);
  Alcotest.(check int) "four cache entries" 4 (Cache.entries (Server.cache server));
  List.iter2
    (fun (what, req) bytes ->
      let again, hit = served_hit (what ^ " again") (Server.handle server req) in
      Alcotest.(check bool) (what ^ ": hits") true hit;
      Alcotest.(check bool) (what ^ ": serves its own entry") true (String.equal bytes again))
    jobs first;
  Alcotest.(check int) "every repeat keyed by the index" 7 (Server.index_hits server);
  let stats, _ = expect_served "stats" (Server.handle server (Protocol.req Protocol.Stats)) in
  Alcotest.(check bool) "stats report the index" true
    (Astring_contains.contains stats "\"index\": {\"entries\": 1, \"hits\": 7}")

let test_index_skips_failed_payloads () =
  let server = Server.create () in
  List.iter
    (fun (what, payload) ->
      let failed () =
        match Server.handle server (compile_req payload) with
        | Protocol.Failed e -> e
        | _ -> Alcotest.failf "%s: not refused" what
      in
      let e1 = failed () in
      let e2 = failed () in
      Alcotest.(check string) (what ^ ": the same text again") e1 e2)
    [ ("unparseable", "not a module");
      ("unverifiable", undefined_type_payload) ];
  Alcotest.(check int) "nothing indexed" 0 (Server.index_entries server);
  Alcotest.(check int) "no index hits" 0 (Server.index_hits server)

let test_index_corrupt_entry_rebuilt () =
  (* the cache entry behind an indexed digest rots: the request misses,
     loads the payload and serves what a direct run gives *)
  let server = Server.create () in
  let payload = encode (sample_module ()) in
  ignore (served_hit "first" (Server.handle server (compile_req payload)));
  let bytes, hit = served_hit "indexed" (Server.handle server (compile_req payload)) in
  Alcotest.(check bool) "indexed request hits" true hit;
  let rebuilt, hit =
    Fun.protect ~finally:Faults.clear (fun () ->
        Faults.install (Faults.plan ~seed:5 ~corrupt_rate:1.0 ());
        served_hit "corrupted" (Server.handle server (compile_req payload)))
  in
  Alcotest.(check bool) "the corrupt entry is a miss" false hit;
  Alcotest.(check int) "corruption counted" 1 (Cache.corrupt (Server.cache server));
  Alcotest.(check int) "keyed by the index throughout" 2 (Server.index_hits server);
  let direct = Llvm_bitcode.Decoder.decode payload in
  Llvm_transforms.Pipelines.optimize_module ~level:2 direct;
  Alcotest.(check bool) "rebuilt = direct pipeline run" true (String.equal (encode direct) rebuilt);
  Alcotest.(check bool) "rebuilt = what was served before" true (String.equal bytes rebuilt);
  let healed, hit = served_hit "healed" (Server.handle server (compile_req payload)) in
  Alcotest.(check bool) "the rebuilt entry hits" true hit;
  Alcotest.(check bool) "and serves the rebuilt bytes" true (String.equal rebuilt healed)

let test_index_bounded () =
  (* probes index like requests do, without running a pipeline *)
  let server = Server.create () in
  let payload i = Printf.sprintf "int %%f() {\nentry:\n  ret int %d\n}" i in
  let n = Server.index_cap + 10 in
  for i = 1 to n do
    (match Server.probe server (compile_req (payload i)) with
    | Server.Miss _ -> ()
    | _ -> Alcotest.failf "payload %d: a fresh payload's probe is not a Miss" i);
    if Server.index_entries server > Server.index_cap then
      Alcotest.failf "index holds %d entries, above its cap of %d"
        (Server.index_entries server) Server.index_cap
  done;
  Alcotest.(check int) "cleared when full, then refilled" 10 (Server.index_entries server);
  ignore (Server.probe server (compile_req (payload n)));
  Alcotest.(check int) "the latest payload is indexed" 1 (Server.index_hits server)

(* -- Fault tolerance (in-process) ---------------------------------------------- *)

let test_framing_deadlines () =
  let header len =
    Bytes.init 4 (fun i -> Char.chr ((len lsr (8 * (3 - i))) land 0xff))
  in
  let r, w = Unix.pipe () in
  Protocol.write_frame w "hello";
  (match Protocol.read_frame_within ~idle:1.0 ~deadline:1.0 r with
  | Protocol.Frame s -> Alcotest.(check string) "frame read" "hello" s
  | _ -> Alcotest.fail "expected Frame");
  (* no byte within the idle bound *)
  (match Protocol.read_frame_within ~idle:0.05 ~deadline:1.0 r with
  | Protocol.Idle -> ()
  | _ -> Alcotest.fail "expected Idle");
  (* a frame that starts but never completes costs at most the
     deadline — this is the mid-frame stall a blocking read would
     sleep on forever *)
  ignore (Unix.write w (header 100) 0 4);
  ignore (Unix.write w (Bytes.of_string "partial") 0 7);
  let t0 = Unix.gettimeofday () in
  (match Protocol.read_frame_within ~idle:1.0 ~deadline:0.08 r with
  | Protocol.Stalled ->
    Alcotest.(check bool) "stall bounded by the deadline" true
      (Unix.gettimeofday () -. t0 < 1.0)
  | _ -> Alcotest.fail "expected Stalled");
  Unix.close r;
  Unix.close w;
  (* a torn frame (header + part of the body, then close) is EOF, not
     a hang *)
  let r, w = Unix.pipe () in
  ignore (Unix.write w (header 100) 0 4);
  ignore (Unix.write w (Bytes.of_string "torn") 0 4);
  Unix.close w;
  (match Protocol.read_frame_within ~idle:1.0 ~deadline:0.5 r with
  | Protocol.Eof -> ()
  | _ -> Alcotest.fail "expected Eof for a torn frame");
  Unix.close r

let test_server_deadline_expiry () =
  (* every pipeline run sleeps 120ms; a 30ms budget must expire at the
     first pass boundary and answer Timed_out *)
  Faults.install (Faults.plan ~seed:7 ~slow_rate:1.0 ~slow_ms:120 ());
  Fun.protect ~finally:Faults.clear (fun () ->
      let server = Server.create () in
      let payload = encode (sample_module ()) in
      (match Server.handle server (compile_req ~deadline_ms:30 payload) with
      | Protocol.Timed_out why ->
        Alcotest.(check bool) "timeout names the budget" true
          (Astring_contains.contains why "30 ms")
      | _ -> Alcotest.fail "expected Timed_out");
      Alcotest.(check int) "timeout counted" 1 (Server.timed_out server);
      (* the same request without a deadline is served (slowly) *)
      ignore
        (expect_served "no deadline" (Server.handle server (compile_req payload))))

let test_cache_integrity_self_heal () =
  let c = Cache.create ~shards:1 ~shard_bytes:4096 () in
  Cache.put c "k" "precious bytes";
  (* bytes rot at rest: the next find must detect the damage instead of
     serving garbage *)
  Fun.protect ~finally:Faults.clear (fun () ->
      Faults.install (Faults.plan ~seed:11 ~corrupt_rate:1.0 ());
      match Cache.find c "k" with
      | None -> ()
      | Some _ -> Alcotest.fail "corrupted entry served");
  Alcotest.(check int) "corruption detected and counted" 1 (Cache.corrupt c);
  Alcotest.(check int) "corrupt entry dropped" 0 (Cache.entries c);
  (* the caller recomputes and re-puts: service restored *)
  Cache.put c "k" "precious bytes";
  Alcotest.(check (option string)) "self-healed" (Some "precious bytes")
    (Cache.find c "k")

let test_worker_crash_isolation () =
  (* generation 0 of the single worker always crashes mid-pipeline;
     the respawned generation 1 is past the limit and serves *)
  let faults =
    Faults.plan ~seed:3 ~crash_rate:1.0 ~crash_point:Faults.Before_pipeline
      ~crash_generation_limit:1 ()
  in
  let pool = Worker.create ~n:1 ~faults Server.default_config in
  Fun.protect
    ~finally:(fun () -> Worker.shutdown pool)
    (fun () ->
      let payload = encode (sample_module ()) in
      (match Worker.dispatch pool ~route:None (compile_req payload) with
      | Worker.Crashed -> ()
      | Worker.Resp _ -> Alcotest.fail "injected crash did not fire"
      | Worker.Hard_timeout -> Alcotest.fail "unexpected hard timeout");
      Alcotest.(check int) "worker respawned" 1 (Worker.restarts pool);
      match Worker.dispatch pool ~route:None (compile_req payload) with
      | Worker.Resp (Protocol.Served _) -> ()
      | _ -> Alcotest.fail "respawned worker did not serve")

let test_client_unframeable () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Faults.send_faulty Faults.Garbage_header a "";
  (match Daemon.receive b with
  | Error (Daemon.Unframeable n) ->
    Alcotest.(check int) "announced length reported" (Protocol.max_frame + 1) n
  | _ -> Alcotest.fail "garbage header not detected");
  (* past a bad header the stream cannot be re-synchronized: the
     client closed it (same discipline as the daemon side) *)
  (match Unix.fstat b with
  | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
  | _ -> Alcotest.fail "fd not closed after Unframeable");
  Unix.close a

(* -- Daemon (end-to-end over the socket) -------------------------------------- *)

let socket_counter = ref 0

let temp_socket () =
  incr socket_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "llvmd-test-%d-%d.sock" (Unix.getpid ()) !socket_counter)

(* Fork a daemon, wait until it listens, run [f socket], then SIGTERM
   it and assert the shutdown was graceful: exit 0, socket unlinked. *)
let with_daemon ?config ?faults ?socket (f : string -> unit) : unit =
  let socket = match socket with Some s -> s | None -> temp_socket () in
  let ready_r, ready_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close ready_r;
    (try
       Daemon.serve ?config ?faults
         ~on_ready:(fun () ->
           ignore (Unix.write ready_w (Bytes.of_string "r") 0 1))
         ~socket Server.default_config
     with _ -> Unix._exit 1);
    Unix._exit 0
  | pid ->
    Unix.close ready_w;
    (try
       ignore (Unix.read ready_r (Bytes.create 1) 0 1);
       f socket
     with e ->
       (try Unix.close ready_r with Unix.Unix_error _ -> ());
       (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
       ignore (Unix.waitpid [] pid);
       if Sys.file_exists socket then Sys.remove socket;
       raise e);
    (try Unix.close ready_r with Unix.Unix_error _ -> ());
    (* a Shutdown request may have stopped it already: ESRCH is fine *)
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let _, status = Unix.waitpid [] pid in
    Alcotest.(check bool) "daemon exits 0 on shutdown" true
      (status = Unix.WEXITED 0);
    Alcotest.(check bool) "socket unlinked on shutdown" true
      (not (Sys.file_exists socket))

(* Send [reqs] as back-to-back frames in one write, so the daemon
   finds them all queued and drains them as one batch. *)
let write_burst (fd : Unix.file_descr) (reqs : Protocol.request list) : unit =
  let b = Buffer.create 1024 in
  List.iter
    (fun req ->
      let body = Protocol.encode_request req in
      Buffer.add_int32_be b (Int32.of_int (String.length body));
      Buffer.add_string b body)
    reqs;
  let bytes = Buffer.to_bytes b in
  let n = Bytes.length bytes in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd bytes !off (n - !off)
  done

(* A small module, distinct for each [i], whose compile misses the cache. *)
let uncached_payload i =
  encode
    (minic ~name:(Printf.sprintf "uncached%d" i)
       (Printf.sprintf "int f%d(int x) { return x + %d; }" i i))

let test_daemon_socket () =
  with_daemon (fun socket ->
      let fd = Daemon.connect ~socket in
      let payload = encode (sample_module ()) in
      (match Daemon.request fd (compile_req payload) with
      | Ok (Protocol.Served { metrics; _ }) ->
        Alcotest.(check bool) "first socket compile misses" false
          metrics.Protocol.m_hit
      | _ -> Alcotest.fail "compile over socket");
      (match Daemon.request fd (compile_req payload) with
      | Ok (Protocol.Served { metrics; _ }) ->
        Alcotest.(check bool) "second socket compile hits" true
          metrics.Protocol.m_hit
      | _ -> Alcotest.fail "cached compile over socket");
      (match Daemon.request fd (Protocol.req Protocol.Ping) with
      | Ok (Protocol.Served { payload = "pong"; _ }) -> ()
      | _ -> Alcotest.fail "ping over socket");
      (match Daemon.request fd (Protocol.req Protocol.Stats) with
      | Ok (Protocol.Served { payload; _ }) ->
        Alcotest.(check bool) "stats over socket" true
          (Astring_contains.contains payload "\"compile\": 2");
        Alcotest.(check bool) "stats carry daemon supervision state" true
          (Astring_contains.contains payload "\"daemon\"")
      | _ -> Alcotest.fail "stats over socket");
      (match Daemon.request fd (Protocol.req Protocol.Shutdown) with
      | Ok (Protocol.Served _) -> ()
      | _ -> Alcotest.fail "shutdown over socket");
      Daemon.close fd)

let test_daemon_shed_and_retry () =
  let config =
    { Daemon.default_config with Daemon.max_queue = 1; max_batch = 8 }
  in
  with_daemon ~config (fun socket ->
      let payload = encode (sample_module ()) in
      (* two work frames in one write: the daemon drains both as one
         batch, admits one, sheds the overflow *)
      let fd = Daemon.connect ~socket in
      write_burst fd
        [ Protocol.req (Protocol.Lint payload); Protocol.req (Protocol.Lint payload) ];
      (match Daemon.receive fd with
      | Ok (Protocol.Served _) -> ()
      | _ -> Alcotest.fail "first of the burst not served");
      (match Daemon.receive fd with
      | Ok (Protocol.Busy { retry_after_ms }) ->
        Alcotest.(check bool) "busy carries a retry hint" true
          (retry_after_ms > 0)
      | _ -> Alcotest.fail "overflow not shed as Busy");
      Daemon.close fd;
      (* the retry helper rides out the shed on a fresh connection *)
      match
        Daemon.request_with_retry ~attempts:3 ~socket
          (Protocol.req (Protocol.Lint payload))
      with
      | Ok (Protocol.Served _) -> ()
      | _ -> Alcotest.fail "retry did not recover")

let test_daemon_degraded_mode () =
  (* breaker: trips after 2 deadline expiries in a >= 3-outcome window;
     the cooldown is long enough that it stays degraded for the rest of
     the test *)
  let config =
    { Daemon.default_config with
      Daemon.deadline_ms = 40; breaker_window = 8; breaker_min = 3;
      breaker_ratio = 0.5; breaker_cooldown_ms = 60_000 }
  in
  (* every pipeline run after the first sleeps past the 40ms budget *)
  let faults = Faults.plan ~seed:5 ~slow_rate:1.0 ~slow_ms:150 ~skip:1 () in
  with_daemon ~config ~faults (fun socket ->
      let cached = encode (sample_module ()) in
      let fd = Daemon.connect ~socket in
      (* pipeline run #1 is fault-free (skip): lands in the front cache *)
      (match Daemon.request fd (compile_req cached) with
      | Ok (Protocol.Served _) -> ()
      | _ -> Alcotest.fail "warm-up compile not served");
      for i = 1 to 2 do
        match Daemon.request fd (compile_req (uncached_payload i)) with
        | Ok (Protocol.Timed_out _) -> ()
        | _ -> Alcotest.failf "slow compile %d did not time out" i
      done;
      (* degraded mode: cache hits still served, fresh work shed *)
      (match Daemon.request fd (compile_req cached) with
      | Ok (Protocol.Served { metrics; _ }) ->
        Alcotest.(check bool) "degraded mode serves cache hits" true
          metrics.Protocol.m_hit
      | _ -> Alcotest.fail "cache hit refused in degraded mode");
      (match Daemon.request fd (compile_req (uncached_payload 3)) with
      | Ok (Protocol.Busy _) -> ()
      | _ -> Alcotest.fail "uncached work not shed in degraded mode");
      (* control traffic keeps flowing *)
      (match Daemon.request fd (Protocol.req Protocol.Ping) with
      | Ok (Protocol.Served { payload = "pong"; _ }) -> ()
      | _ -> Alcotest.fail "ping refused in degraded mode");
      (match Daemon.request fd (Protocol.req Protocol.Stats) with
      | Ok (Protocol.Served { payload; _ }) ->
        Alcotest.(check bool) "stats report the open breaker" true
          (Astring_contains.contains payload "\"breaker\": \"open\"")
      | _ -> Alcotest.fail "stats refused in degraded mode");
      Daemon.close fd)

let test_daemon_burst_links_share_ipo () =
  (* four links sharing a library, drained as one batch: each answered
     on its own as it would be alone, and the library's IPO put once *)
  with_daemon (fun socket ->
      let reqs = List.init 4 link_req in
      let fd = Daemon.connect ~socket in
      write_burst fd reqs;
      List.iteri
        (fun i req ->
          match Daemon.receive fd with
          | Ok resp ->
            let served, _ = expect_served (Printf.sprintf "link %d" i) resp in
            Alcotest.(check bool)
              (Printf.sprintf "link %d = solo bytes" i)
              true
              (String.equal (solo_answer req) served)
          | Error e -> Alcotest.failf "link %d: %s" i (Daemon.error_to_string e))
        reqs;
      (match Daemon.request fd (Protocol.req Protocol.Stats) with
      | Ok (Protocol.Served { payload; _ }) ->
        let shards =
          Json.to_list (Json.member "shards" (Json.member "cache" (Json.of_string payload)))
        in
        let puts =
          List.fold_left
            (fun acc shard -> acc + int_of_float (Json.to_num (Json.member "puts" shard)))
            0 shards
        in
        Alcotest.(check int) "four links and one libs-ipo entry put" 5 puts
      | _ -> Alcotest.fail "stats after the burst");
      Daemon.close fd)

let test_daemon_breaker_per_request () =
  (* the breaker is consulted before each request of a drained batch:
     once two compiles of a burst have timed out it is open, and the
     rest of the burst is shed *)
  let config =
    { Daemon.default_config with
      Daemon.deadline_ms = 40; breaker_min = 2; breaker_ratio = 0.5;
      breaker_cooldown_ms = 60_000 }
  in
  let faults = Faults.plan ~seed:5 ~slow_rate:1.0 ~slow_ms:150 () in
  with_daemon ~config ~faults (fun socket ->
      let fd = Daemon.connect ~socket in
      write_burst fd (List.init 4 (fun i -> compile_req (uncached_payload (10 + i))));
      let answer i =
        match Daemon.receive fd with
        | Ok (Protocol.Timed_out _) -> "timed_out"
        | Ok (Protocol.Busy _) -> "busy"
        | Ok _ -> "other"
        | Error e -> Alcotest.failf "answer %d: %s" i (Daemon.error_to_string e)
      in
      Alcotest.(check (list string)) "two time out, then the open breaker sheds"
        [ "timed_out"; "timed_out"; "busy"; "busy" ]
        (List.init 4 answer);
      Daemon.close fd)

let test_daemon_worker_crash_e2e () =
  let config =
    { Daemon.default_config with Daemon.workers = 1; deadline_ms = 5000 }
  in
  let faults =
    Faults.plan ~seed:9 ~crash_rate:1.0 ~crash_point:Faults.Before_pipeline
      ~crash_generation_limit:1 ()
  in
  with_daemon ~config ~faults (fun socket ->
      let payload = encode (sample_module ()) in
      let fd = Daemon.connect ~socket in
      (* generation 0 crashes carrying the first compile: one Failed
         answer, not a dead daemon *)
      (match Daemon.request fd (compile_req payload) with
      | Ok (Protocol.Failed e) ->
        Alcotest.(check bool) "failure names the crash" true
          (Astring_contains.contains e "worker crashed")
      | _ -> Alcotest.fail "crash not reported as Failed");
      (* the respawned worker serves, byte-identical to a direct run *)
      (match Daemon.request fd (compile_req payload) with
      | Ok (Protocol.Served { payload = served; _ }) ->
        let direct = Llvm_bitcode.Decoder.decode payload in
        Llvm_transforms.Pipelines.optimize_module ~level:2 direct;
        Alcotest.(check bool) "recovered worker bytes = direct run" true
          (String.equal (encode direct) served)
      | _ -> Alcotest.fail "no recovery after worker crash");
      (match Daemon.request fd (Protocol.req Protocol.Stats) with
      | Ok (Protocol.Served { payload; _ }) ->
        Alcotest.(check bool) "stats count the restart" true
          (Astring_contains.contains payload "\"restarts\": 1")
      | _ -> Alcotest.fail "stats after crash");
      Daemon.close fd)

let test_daemon_socket_lifecycle () =
  (* a stale socket file left by a crashed daemon is reclaimed *)
  let socket = temp_socket () in
  let stale = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind stale (Unix.ADDR_UNIX socket);
  Unix.close stale;
  Alcotest.(check bool) "stale socket file left behind" true
    (Sys.file_exists socket);
  let ping socket =
    match
      Daemon.request_with_retry ~attempts:2 ~socket (Protocol.req Protocol.Ping)
    with
    | Ok (Protocol.Served { payload = "pong"; _ }) -> ()
    | _ -> Alcotest.fail "ping failed"
  in
  with_daemon ~socket (fun socket ->
      ping socket;
      (* a second daemon must refuse the live socket instead of
         clobbering it *)
      (match Unix.fork () with
      | 0 -> (
        try
          Daemon.serve ~socket Server.default_config;
          Unix._exit 1
        with
        | Daemon.Busy_socket _ -> Unix._exit 7
        | _ -> Unix._exit 1)
      | pid ->
        let rec wait_exit tries =
          if tries = 0 then begin
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid);
            Alcotest.fail "second daemon did not refuse the busy socket"
          end
          else
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ ->
              Unix.sleepf 0.05;
              wait_exit (tries - 1)
            | _, Unix.WEXITED 7 -> ()
            | _ -> Alcotest.fail "second daemon died unexpectedly"
        in
        wait_exit 100);
      (* the usurper did not unlink our socket: still serving *)
      ping socket);
  (* graceful SIGTERM shutdown was asserted by with_daemon; the same
     path is immediately reusable *)
  with_daemon ~socket ping

let tests =
  [ Alcotest.test_case "digest: deterministic" `Quick test_digest_deterministic;
    Alcotest.test_case "digest: equal iff bytes equal" `Quick
      test_digest_discriminates;
    Alcotest.test_case "digest: ignores module name" `Quick
      test_digest_ignores_module_name;
    Alcotest.test_case "cache: hit after put" `Quick test_cache_hit_after_put;
    Alcotest.test_case "cache: LRU eviction under byte budget" `Quick
      test_cache_lru_eviction_order;
    Alcotest.test_case "cache: shard assignment" `Quick
      test_cache_shard_assignment;
    Alcotest.test_case "protocol: roundtrips" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol: O0..O3 specs, no others" `Quick
      test_protocol_pipeline_levels;
    Alcotest.test_case "protocol: golden wire bytes" `Quick
      test_protocol_golden_bytes;
    Alcotest.test_case "protocol: framing" `Quick test_protocol_framing;
    Alcotest.test_case "protocol: oversized frame is not EOF" `Quick
      test_protocol_oversize;
    Alcotest.test_case "server: verifier message for a bad payload" `Quick
      test_server_reports_verifier_message;
    Alcotest.test_case "server: an ssa violation is refused" `Quick
      test_server_rejects_ssa_violation;
    Alcotest.test_case "server: compile differential" `Quick
      test_server_compile_differential;
    Alcotest.test_case "server: every level matches a direct run" `Quick
      test_server_every_level_matches_direct;
    Alcotest.test_case "server: content addressing across formats" `Quick
      test_server_content_addressing;
    Alcotest.test_case "server: pipeline specs key the cache" `Quick
      test_server_pipeline_spec_keys;
    Alcotest.test_case "server: validation rejects a miscompile" `Quick
      test_server_rejects_miscompile;
    Alcotest.test_case "server: run, lint, stats" `Quick
      test_server_run_and_lint;
    Alcotest.test_case "server: a trapping Run exits 121" `Quick
      test_server_run_trap_exit_code;
    Alcotest.test_case "server: shared library IPO runs once" `Quick
      test_server_links_share_ipo;
    Alcotest.test_case "server: validated links key separately" `Quick
      test_server_link_validate_keys;
    Alcotest.test_case "server: probe and handle agree on every key" `Quick
      test_server_probe_agrees_with_handle;
    Alcotest.test_case "index: one payload, four jobs, one entry" `Quick
      test_index_one_entry_many_keys;
    Alcotest.test_case "index: a payload that fails is not indexed" `Quick
      test_index_skips_failed_payloads;
    Alcotest.test_case "index: a corrupt entry behind it is rebuilt" `Quick
      test_index_corrupt_entry_rebuilt;
    Alcotest.test_case "index: bounded by its cap" `Quick test_index_bounded;
    Alcotest.test_case "framing: idle/stall/torn deadlines" `Quick
      test_framing_deadlines;
    Alcotest.test_case "server: deadline expiry answers Timed_out" `Quick
      test_server_deadline_expiry;
    Alcotest.test_case "cache: corruption detected and self-healed" `Quick
      test_cache_integrity_self_heal;
    Alcotest.test_case "worker: crash is isolated and respawned" `Quick
      test_worker_crash_isolation;
    Alcotest.test_case "client: oversized frame closes the stream" `Quick
      test_client_unframeable;
    Alcotest.test_case "daemon: socket end-to-end" `Quick test_daemon_socket;
    Alcotest.test_case "daemon: overflow shed, client retry recovers" `Quick
      test_daemon_shed_and_retry;
    Alcotest.test_case "daemon: breaker degrades to cache-only" `Quick
      test_daemon_degraded_mode;
    Alcotest.test_case "daemon: burst of links puts IPO once" `Quick
      test_daemon_burst_links_share_ipo;
    Alcotest.test_case "daemon: breaker checked per request" `Quick
      test_daemon_breaker_per_request;
    Alcotest.test_case "daemon: worker crash recovery end-to-end" `Quick
      test_daemon_worker_crash_e2e;
    Alcotest.test_case "daemon: socket claiming and graceful restart" `Quick
      test_daemon_socket_lifecycle ]
