(* serve-zipf and serve-churn: one client, one connection at a time,
   replaying the fleet mix against a spawned llvmd (in-process
   pipelines, the daemon's default workers = 0).  Closed loop: each
   request is sent when the previous reply has arrived.

   The mix, per session of 2-5 requests on one connection: 70% compile
   (-O3 one time in five, else -O2), 15% lint, 15% run for an
   exception-heavy program or -O2 compile otherwise; every 8th session
   is followed by a pipelined batch of four links sharing a library set.

   - zipf: a fixed universe of 62 modules (three quick variants of each
     Table-1 and Olden/Ptrdist profile, plus the exception-heavy
     programs) with zipf(1.1) popularity, the cache warmed with every
     compile, lint and link key first.  It measures the hit path:
     framing, load, verify, digest, cache lookup.
   - churn: every payload is distinct, so every request misses and
     inserts: seed-derived quick variants, each encoded as bitcode, like
     zipf's, with one extra global that makes its content unique.  The
     variants are encoded in set-up; each request's payload is a copy
     of one with the global's value patched in.  It measures
     the same loader, cache and digest layers used for writes, with the
     pipelines dominating.  The 8 MB cache is smaller than the stream,
     so churn also evicts, while zipf's working set fits.

   The seed makes one round of 64 sessions (see [round]), which the
   client replays for the whole run, so every round sends the same
   requests: on zipf the same payloads, on churn the same bases with
   fresh initialisers.  The seed also draws churn's variants; zipf's
   universe and popularity ranking are fixed, because which module ranks
   first moves every hit-latency percentile. *)

open Llvm_workloads
module P = Llvm_serve.Protocol
module D = Llvm_serve.Daemon
module Server = Llvm_serve.Server
module Engine = Llvm_exec.Engine

let cache_mb = 8

(* -- The daemon ---------------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let live : daemon list ref = ref []

let stop (d : daemon) : unit =
  if List.memq d !live then begin
    live := List.filter (fun x -> x != d) !live;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] d.pid)
  end

let () = at_exit (fun () -> List.iter stop !live)

(* The llvmd built next to this executable. *)
let llvmd () : string =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/llvmd.exe"

let start ~(socket : string) : daemon =
  Trace.span "daemon.start" (fun () ->
      let log =
        Unix.openfile (socket ^ ".log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      let exe = llvmd () in
      let pid =
        Unix.create_process exe
          [| exe; "serve"; "--socket"; socket; "--cache-mb"; string_of_int cache_mb |]
          Unix.stdin log log
      in
      Unix.close log;
      let d = { pid; socket } in
      live := d :: !live;
      let rec wait tries =
        match D.request_with_retry ~attempts:1 ~socket (P.req P.Ping) with
        | Ok (P.Served _) -> d
        | _ ->
          if tries = 0 || fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
            failwith ("llvmd did not come up; see " ^ socket ^ ".log");
          Unix.sleepf 0.005;
          wait (tries - 1)
      in
      wait 2000)

let stats (d : daemon) : Json.t =
  match D.request_with_retry ~socket:d.socket (P.req P.Stats) with
  | Ok (P.Served { payload; _ }) -> Json.of_string payload
  | _ -> failwith "llvmd stats failed"

(* -- Inputs ---------------------------------------------------------------------- *)

type module_ = { payload : string; eh : bool }

let bitcode_of (p : Genprog.profile) : string =
  Steps.encode (Steps.minicc ~name:p.Genprog.p_name (Steps.genprog p))

(* Shared libraries for link batches: MiniC modules with no main. *)
let libsets () : string list =
  List.init 3 (fun i ->
      let src =
        Printf.sprintf
          {|
int svclib_mix_%d(int x) {
  int acc = x + %d;
  for (int k = 0; k < 64; k++) { acc = (acc * 33 + k) & 65535; }
  return acc;
}
int svclib_sum_%d(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s = s + svclib_mix_%d(i);
  return s;
}
|}
          i (17 * i) i i
      in
      Steps.encode (Steps.minicc ~name:(Printf.sprintf "svclib%d" i) src))

let zipf_universe () : module_ array =
  let genprog =
    List.concat_map
      (fun (p : Genprog.profile) ->
        List.init 3 (fun v ->
            let q = { (Spec.quick p) with Genprog.seed = p.Genprog.seed + (101 * v) } in
            { payload = bitcode_of q; eh = false }))
      (Spec.spec2000 @ Spec.disciplined)
  in
  let eh =
    List.map
      (fun (name, src) -> { payload = Steps.encode (Steps.minicc ~name src); eh = true })
      Ehprog.programs
  in
  Array.of_list (genprog @ eh)

(* zipf(1.1) over a fixed random ranking of the universe: each module's
   weight, by its index. *)
let zipf (universe : module_ array) : float array =
  let n = Array.length universe in
  let perm = Steps.shuffle (Rng.create 0x5e12e) (Array.init n Fun.id) in
  let weight = Array.make n 0.0 in
  Array.iteri (fun rank i -> weight.(i) <- 1.0 /. (float_of_int (rank + 1) ** 1.1)) perm;
  weight

(* [n] indices, each index [i] as often as its share of the weights
   [w] gives it: the whole part of [n * w.(i) / sum w], plus one for the
   largest remainders until there are [n]. *)
let quota (w : float array) (n : int) : int array =
  let total = Array.fold_left ( +. ) 0.0 w in
  let share = Array.map (fun x -> float_of_int n *. x /. total) w in
  let count = Array.map int_of_float share in
  let left = n - Array.fold_left ( + ) 0 count in
  let remainder i = share.(i) -. Float.of_int count.(i) in
  List.init (Array.length w) Fun.id
  |> List.stable_sort (fun i j -> compare (remainder j) (remainder i))
  |> List.iteri (fun k i -> if k < left then count.(i) <- count.(i) + 1);
  Array.concat (Array.to_list (Array.mapi (fun i c -> Array.make c i) count))

(* Churn's payloads.  The k-th payload drawn is one of 190 bases, each a
   seed-derived quick variant, with one unused internal global whose
   initialiser [first + k] makes its content unique, encoded as bitcode.

   Each base is encoded once, with the initialiser [first]; payload k is
   a copy of that image with the initialiser's bytes overwritten.  Every
   initialiser from [first] up to 2^62 takes the same nine bytes, so the
   copy is byte for byte the encoding of the module with initialiser
   [first + k], which [spliced_ok] checks on a sample. *)
let first = 0x0080_0000_0000_0000L (* 2^55, whose zigzag form 2^56 takes nine bytes *)

let initialiser (v : int64) : string =
  let b = Buffer.create 9 in
  Llvm_bitcode.Format.write_varint64 b (Llvm_bitcode.Format.zigzag v);
  Buffer.contents b

let encode_unique (m : Llvm_ir.Ir.modul) (value : int64) : string =
  let open Llvm_ir in
  let long = Ltype.Integer Ltype.Long in
  let g =
    Ir.mk_gvar ~linkage:Ir.Internal ~init:(Ir.Cint (long, value)) ~name:"churn_unique" ~ty:long ()
  in
  Ir.add_gvar m g;
  let bytes = Steps.encode m in
  Ir.remove_gvar m g;
  bytes

type base = {
  name : string;
  src : string;  (* MiniC *)
  image : string;
  at : int;  (* the initialiser's offset in [image] *)
}

let base (p : Genprog.profile) : base =
  let name = p.Genprog.p_name and src = Steps.genprog p in
  let image = encode_unique (Steps.minicc ~name src) first and sentinel = initialiser first in
  let width = String.length sentinel in
  let at =
    List.filter
      (fun i -> String.sub image i width = sentinel)
      (List.init (String.length image - width + 1) Fun.id)
  in
  match at with
  | [ at ] -> { name; src; image; at }
  | _ -> failwith "serve-churn: the initialiser's bytes are not unique in the image"

let payload (b : base) (k : int) : string =
  let image = Bytes.of_string b.image in
  let value = initialiser (Int64.add first (Int64.of_int k)) in
  Bytes.blit_string value 0 image b.at (String.length value);
  Bytes.unsafe_to_string image

let spliced_ok ((b : base), (k : int)) : bool =
  payload b k = encode_unique (Steps.minicc ~name:b.name b.src) (Int64.add first (Int64.of_int k))

(* Every base encoded in set-up; the payloads are spliced as they are
   drawn, one copy of an image each, before their request is sent. *)
let churn_bases ~(seed : int) : base array =
  Array.of_list (List.map base (Steps.variants (Rng.create (0xc4a2 + seed)) ~per_profile:10))

(* -- The request stream ------------------------------------------------------------ *)

let compile level payload =
  P.Compile { c_payload = payload; c_pipeline = P.Level level; c_validate = false }

let link (libs : string) payload : P.body =
  P.Link { l_apps = [ payload ]; l_libs = [ libs ]; l_validate = false }

(* One request of a round: where its payload comes from (an index into
   zipf's universe or churn's bases) and the request around it. *)
type request = { src : int; wrap : string -> P.body }

(* A session of requests on one connection, or a pipelined link batch. *)
type step = Session of request list | Links of request list

let sessions_per_round = 64

(* One round of the stream, made once from the seed and replayed for the
   whole run: sessions of 2, 3, 4 and 5 requests in turn, every 8th
   followed by a batch of four links sharing a library set.  The session
   requests are exactly 70% compiles (a fifth of them at -O3), 15% lints
   and 15% runs of an exception-heavy program or else -O2 compiles.
   [sources n] gives the payload sources of [n] requests, in order; the
   session requests and the links take theirs separately.  The seed
   shuffles the kinds and picks each batch's library set.  A round is
   short enough that drawing each request's kind, or each payload's
   module, at random would move the tail from seed to seed. *)
let round (rng : Rng.t) ~(sources : int -> int array) ~(eh : int -> bool) ~(libs : string list)
    : step list =
  let sizes = List.init sessions_per_round (fun s -> 2 + (s mod 4)) in
  let total = List.fold_left ( + ) 0 sizes in
  let kinds =
    Steps.shuffle rng
      (Array.init total (fun i ->
           let share = 100 * i / total in
           if share < 14 then `O3 else if share < 70 then `O2 else if share < 85 then `Lint
           else `Run))
  in
  let in_sessions = sources total and in_links = sources (4 * (sessions_per_round / 8)) in
  let request i =
    let src = in_sessions.(i) in
    let wrap =
      match kinds.(i) with
      | `O3 -> compile 3
      | `O2 -> compile 2
      | `Lint -> fun p -> P.Lint p
      | `Run when eh src -> fun p ->
        P.Run
          { r_payload = p; r_pipeline = P.Level 2; r_fuel = 10_000_000; r_engine = Engine.Tiered }
      | `Run -> compile 2
    in
    { src; wrap }
  in
  let next = ref 0 in
  List.concat
    (List.mapi
       (fun s size ->
         let session = Session (List.init size (fun k -> request (!next + k))) in
         next := !next + size;
         if (s + 1) mod 8 <> 0 then [ session ]
         else
           let l = Rng.pick rng libs and b = (s / 8) * 4 in
           [ session; Links (List.init 4 (fun k -> { src = in_links.(b + k); wrap = link l })) ])
       sizes)

(* -- Correctness ----------------------------------------------------------------- *)

(* Served results set aside for comparison with direct runs of the same
   public functions: every 50th compile and lint, and every run. *)
type check = {
  mutable compiles : int;
  mutable lints : int;
  mutable samples : (P.body * string) list;
}

let keep (c : check) (body : P.body) (served : string) : unit =
  match body with
  | P.Compile _ ->
    c.compiles <- c.compiles + 1;
    if c.compiles mod 50 = 0 then c.samples <- (body, served) :: c.samples
  | P.Lint _ ->
    c.lints <- c.lints + 1;
    if c.lints mod 50 = 0 then c.samples <- (body, served) :: c.samples
  | P.Run _ -> c.samples <- (body, served) :: c.samples
  | P.Link _ | P.Stats | P.Ping | P.Shutdown -> ()

let load payload =
  match Llvm_serve.Loader.of_bytes ~name:"check" payload with
  | Ok m -> m
  | Error e -> failwith e

(* Every payload is bitcode, which carries its module's name, so a
   served compile must be byte-equal to the direct one. *)
let direct (body : P.body) : string =
  match body with
  | P.Compile { c_payload; c_pipeline = P.Level level; _ } ->
    let m = load c_payload in
    Llvm_transforms.Pipelines.optimize_module ~level m;
    fst (Llvm_bitcode.Encoder.encode m)
  | P.Lint payload ->
    let diags = Llvm_analysis.Lint.run (load payload) in
    String.concat "\n" (List.map Llvm_analysis.Lint.diag_to_json diags)
  | P.Run { r_payload; r_fuel; r_engine; _ } ->
    let m = load r_payload in
    Llvm_transforms.Pipelines.optimize_module ~level:2 m;
    let r, _ = Engine.run_main ~fuel:r_fuel r_engine m in
    Printf.sprintf "%s|%d" r.Llvm_exec.Interp.output r.Llvm_exec.Interp.instructions
  | _ -> invalid_arg "direct"

let served_view (body : P.body) (served : string) : string =
  match body with
  | P.Run _ -> (
    match P.decode_run_reply served with
    | Ok r -> Printf.sprintf "%s|%d" r.P.output r.P.instructions
    | Error e -> e)
  | _ -> served

let verify_samples (c : check) : bool =
  let memo = Hashtbl.create 16 in
  List.for_all
    (fun (body, served) ->
      let expected =
        match Hashtbl.find_opt memo body with
        | Some e -> e
        | None ->
          let e = direct body in
          Hashtbl.replace memo body e;
          e
      in
      let same = served_view body served = expected in
      if not same then Fmt.epr "serve: a served result differs from a direct pipeline run@.";
      same)
    c.samples

(* -- The client ------------------------------------------------------------------ *)

type client = {
  socket : string;
  mirror : Server.t option;  (* in-process replay, traced runs only *)
  check : check;
}

(* When tracing: the hidden layers of the daemon's hit path, each timed
   by a separate call on the same payload (the cache key mirrors
   Server's "digest|pipeline" format). *)
let probes (c : client) (body : P.body) : unit =
  let probe_payload payload suffix =
    let m = Trace.probe "server.loader" (fun () -> load payload) in
    ignore (Trace.probe "server.verify" (fun () -> Llvm_ir.Verify.verify_module m));
    let digest = Trace.probe "server.digest" (fun () -> Llvm_bitcode.Digest.of_module m) in
    let cache = Server.cache (Option.get c.mirror) in
    ignore
      (Trace.probe "server.cache_find" (fun () -> Llvm_serve.Cache.find cache (digest ^ suffix)))
  in
  match body with
  | P.Compile { c_payload; c_pipeline; _ } ->
    probe_payload c_payload ("|" ^ P.pipeline_to_string c_pipeline)
  | P.Run { r_payload; r_pipeline; _ } ->
    probe_payload r_payload ("|" ^ P.pipeline_to_string r_pipeline)
  | P.Lint payload -> probe_payload payload "|lint"
  | P.Link _ | P.Stats | P.Ping | P.Shutdown -> ()

let outcome (c : client) (body : P.body) (r : (P.response, D.error) result) : bool =
  match r with
  | Ok (P.Served { payload; metrics }) ->
    Trace.count "server.pipeline_ms" metrics.P.m_pipeline_ms;
    keep c.check body payload;
    true
  | Ok (P.Failed e | P.Rejected e | P.Timed_out e) ->
    Fmt.epr "serve: request failed: %s@." e;
    false
  | Ok (P.Busy _) ->
    Fmt.epr "serve: request shed@.";
    false
  | Error e ->
    Fmt.epr "serve: %s@." (D.error_to_string e);
    false

(* One request on an open connection, as one operation. *)
let one (c : client) (w : Measure.window) (fd : Unix.file_descr) (body : P.body) : unit =
  let req = P.req body in
  let r, seconds =
    Measure.op w (fun () ->
        let r =
          Trace.span "transport" (fun () ->
              let r = D.request fd req in
              Option.iter
                (fun s -> ignore (Trace.attributed "server.handle" (fun () -> Server.handle s req)))
                c.mirror;
              r)
        in
        if c.mirror <> None then probes c body;
        r)
  in
  Measure.record w ~ok:(outcome c body r) seconds

(* The frames of [reqs], back to back as on the wire: each request's
   length as four bytes, most significant first, then the request. *)
let frames (reqs : P.request list) : Bytes.t =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      let body = P.encode_request r in
      Buffer.add_int32_be b (Int32.of_int (String.length body));
      Buffer.add_string b body)
    reqs;
  Buffer.to_bytes b

(* A pipelined batch: every request sent, in one write, before any reply
   is read; each member's latency runs from the send to its own reply.
   One write puts the whole batch in the daemon's socket at once, so the
   daemon takes it as one batch; frame by frame, how many frames it
   found queued would depend on how the two processes happened to be
   scheduled. *)
let batch (c : client) (w : Measure.window) (fd : Unix.file_descr) (bodies : P.body list) =
  let reqs = List.map P.req bodies in
  let replies, _ =
    Measure.op w (fun () ->
        Trace.span "transport" (fun () ->
            let t0 = Trace.now_ns () in
            let bytes = frames reqs in
            let sent = ref 0 in
            while !sent < Bytes.length bytes do
              sent := !sent + Unix.write fd bytes !sent (Bytes.length bytes - !sent)
            done;
            let replies =
              List.map
                (fun _ ->
                  let r = D.receive fd in
                  (r, Int64.to_float (Int64.sub (Trace.now_ns ()) t0) *. 1e-9))
                reqs
            in
            Option.iter
              (fun s ->
                ignore (Trace.attributed "server.handle" (fun () -> Server.handle_batch s reqs)))
              c.mirror;
            replies))
  in
  List.iter2
    (fun body (r, seconds) -> Measure.record w ~ok:(outcome c body r) seconds)
    bodies replies

let connection (c : client) (w : Measure.window) (f : Unix.file_descr -> unit) (n : int) =
  match D.connect ~socket:c.socket with
  | fd -> Fun.protect ~finally:(fun () -> D.close fd) (fun () -> f fd)
  | exception Unix.Unix_error (e, _, _) ->
    Fmt.epr "serve: connect: %s@." (Unix.error_message e);
    for _ = 1 to n do
      Measure.record w ~ok:false 0.0
    done

let session (c : client) (w : Measure.window) (bodies : P.body list) =
  connection c w (fun fd -> List.iter (one c w fd) bodies) (List.length bodies)

let link_batch (c : client) (w : Measure.window) (bodies : P.body list) =
  connection c w (fun fd -> batch c w fd bodies) (List.length bodies)

(* -- The workloads ------------------------------------------------------------------ *)

type kind = Zipf | Churn

let run (kind : kind) ~(seed : int) ~(seconds : float) : Measure.outcome =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let dir = Lazy.force Steps.scratch in
  let rep = ref 0 in
  (* the daemon starts before any input exists; zipf's set-up is short,
     so it is repeated ten times, to span a few seconds as five of the
     other workloads' set-ups do *)
  let setups, setup_s =
    Measure.setup ~reps:(match kind with Zipf -> 10 | Churn -> 5) (fun () ->
        incr rep;
        let d = start ~socket:(Filename.concat dir (Printf.sprintf "llvmd%d.sock" !rep)) in
        let libs = libsets () in
        match kind with
        | Zipf -> (d, libs, `Universe (zipf_universe ()))
        | Churn -> (d, libs, `Churn (churn_bases ~seed)))
  in
  let payloads = function
    | `Universe u -> Array.to_list (Array.map (fun m -> m.payload) u)
    | `Churn bases -> Array.to_list (Array.map (fun b -> b.image) bases)
  in
  let inputs = List.map (fun (_, libs, i) -> libs @ payloads i) setups in
  let deterministic = List.for_all (( = ) (List.hd inputs)) inputs in
  let daemon, libs, input = List.hd (List.rev setups) in
  List.iter (fun (d, _, _) -> if d != daemon then stop d) setups;
  let mirror =
    if !Trace.enabled then
      Some
        (Server.create
           ~config:
             { Server.default_config with
               shard_bytes = cache_mb * 1024 * 1024 / Server.default_config.Server.shards }
           ())
    else None
  in
  let c = { socket = daemon.socket; mirror; check = { compiles = 0; lints = 0; samples = [] } } in
  (* churn: a fresh payload each time a request is sent, every 50th kept
     to check its splice *)
  let drawn = ref 0 and spliced = ref [] in
  let fresh (b : base) =
    incr drawn;
    if !drawn mod 50 = 1 then spliced := (b, !drawn) :: !spliced;
    payload b !drawn
  in
  (* zipf: every module as often as its popularity says, in an order the
     seed shuffles; churn: the bases in turn *)
  let steps, source =
    let rng = Rng.create (0x5e55 + seed) in
    match input with
    | `Universe u ->
      let popularity = zipf u in
      ( round rng ~sources:(fun n -> Steps.shuffle rng (quota popularity n))
          ~eh:(fun i -> u.(i).eh) ~libs,
        fun i -> u.(i).payload )
    | `Churn bases ->
      let next = ref (-1) in
      let in_turn n = Array.init n (fun _ -> incr next; !next mod Array.length bases) in
      (round rng ~sources:in_turn ~eh:(fun _ -> false) ~libs, fun i -> fresh bases.(i))
  in
  (* which step starts at each operation of the round *)
  let starts = Hashtbl.create 128 in
  let size =
    List.fold_left
      (fun at s ->
        Hashtbl.replace starts at s;
        match s with Session rs | Links rs -> at + List.length rs)
      0 steps
  in
  let bodies = List.map (fun r -> r.wrap (source r.src)) in
  let step (w : Measure.window) =
    match Hashtbl.find starts (w.Measure.n mod size) with
    | Session rs -> session c w (bodies rs)
    | Links rs -> link_batch c w (bodies rs)
  in
  (* warm-up: zipf's cache gets every compile, lint and link key of the
     universe; churn's every library set's link-time IPO *)
  let unrecorded = Measure.new_window ~round:1 () in
  (match input with
  | `Universe u ->
    Array.iter
      (fun m -> session c unrecorded [ compile 2 m.payload; compile 3 m.payload; P.Lint m.payload ])
      u;
    List.iter (fun l -> Array.iter (fun m -> session c unrecorded [ link l m.payload ]) u) libs
  | `Churn bases ->
    List.iter
      (fun l -> link_batch c unrecorded (List.init 4 (fun i -> link l (fresh bases.(i)))))
      libs);
  let before = stats daemon in
  let window =
    Measure.run ~round:size ~seconds ~pid:(string_of_int daemon.pid)
      ~warmup:(match input with `Universe _ -> 0.0 | `Churn _ -> 1.0)
      ~rss_after:(match input with `Universe _ -> 1500 | `Churn _ -> 600)
      step
  in
  let after = stats daemon in
  stop daemon;
  let cache k v = Json.to_num (Json.member k (Json.member "cache" v)) in
  let delta k = cache k after -. cache k before in
  let ops = float_of_int window.Measure.n in
  let counts =
    [ ("cache.hit_pct", 100.0 *. delta "hits" /. Float.max 1.0 (delta "hits" +. delta "misses"));
      ("cache.evictions_per_op", delta "evictions" /. ops);
      ("cache.entries", cache "entries" after);
      ("suite.rounds", ops /. float_of_int size);
      ( "server.pipeline_pct",
        100.0 *. Trace.counted "server.pipeline_ms" /. (1000.0 *. window.Measure.busy) ) ]
  in
  let samples_ok = verify_samples c.check in
  (* every 50th churn payload drawn is the full encoding of its module *)
  let spliced = List.for_all spliced_ok !spliced in
  if not spliced then Fmt.epr "serve: a churn payload is not its module's encoding@.";
  if not deterministic then Fmt.epr "serve: set-up repetitions built different inputs@.";
  { Measure.setup_s; window; correct = samples_ok && spliced && deterministic; counts }
