(* The end-to-end benchmark (BENCHMARK.json at the repository root).

     e2e.exe [run] --workload W [--seed N] [--seconds S] [--trace 0|1]
                   [--out FILE] [--trace-file FILE]
     e2e.exe diff OLD NEW

   [run] measures one workload in this process and prints one JSON
   line: correctness, operations attempted and failed, and every
   end-to-end metric of BENCHMARK.json (or, with --trace 1, every
   per-layer metric).  --out appends the same record, with the run's
   parameters and environment, to FILE; --trace-file writes the traced
   run's spans as Chrome trace-event JSON.  [diff] compares two such
   files.  Run from the repository root (see run.sh). *)

let spec () : Json.t =
  Json.of_string (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all)

(* Layers timed in spans and, as child rows, hidden layers timed by
   probes; each reported as a share of the window's operation time. *)
let layers =
  [ "minicc"; "verify"; "encode"; "loader"; "engine.create"; "engine.run"; "transport";
    "server.handle" ]
  @ List.map
      (fun (p : Llvm_transforms.Pass.t) -> "pass." ^ p.name)
      (Steps.level_passes 3)

let child_layers =
  [ "range.rangeprop"; "range.engine"; "server.loader"; "server.verify"; "server.digest";
    "server.cache_find" ]

let setup_layers =
  [ "genprog"; "minicc"; "passes"; "encode"; "loader"; "verify"; "engine.run"; "fleet.simulate";
    "pgo.optimize"; "daemon.start" ]

let alloc_layers = [ "minicc"; "passes"; "encode"; "loader"; "engine.run"; "server.handle" ]

let count_names =
  [ "ir.instrs_per_op"; "bitcode.bytes_per_op"; "exec.instrs_per_op"; "engine.promotions_per_op";
    "engine.fast_ops_per_op"; "engine.deopts_per_op"; "pgo.promoted"; "pgo.inlined";
    "profile.sites"; "cache.hit_pct"; "cache.evictions_per_op"; "cache.entries";
    "server.pipeline_pct"; "suite.rounds" ]

let distinct l = List.sort_uniq compare l

(* Every per-layer metric, zero for a layer the workload never enters. *)
let per_layer (o : Measure.outcome) : (string * float) list =
  let s = Trace.summarize () in
  let total phase = Option.value ~default:0.0 (List.assoc_opt phase s.Trace.totals) in
  (* pass spans fold into one "passes" row for set-up and allocation *)
  let group name = if String.starts_with ~prefix:"pass." name then "passes" else name in
  let sum phase f name =
    List.fold_left
      (fun acc ((p, n), r) -> if p = phase && (n = name || group n = name) then acc +. f r else acc)
      0.0 s.Trace.rows
  in
  let self r = r.Trace.r_self in
  let pct phase name = 100.0 *. sum phase self name /. total phase in
  let ops = float_of_int o.Measure.window.Measure.n in
  let covered =
    List.fold_left
      (fun acc ((p, _), r) -> if p = "op" && not r.Trace.r_child then acc +. self r else acc)
      0.0 s.Trace.rows
  in
  let passes = List.map (fun (p : Llvm_transforms.Pass.t) -> p.name) (Steps.level_passes 3) in
  List.map (fun l -> (l ^ "_pct", pct "op" l)) (distinct (layers @ child_layers))
  @ List.map (fun l -> ("setup." ^ l ^ "_pct", pct "setup" l)) setup_layers
  @ List.concat_map
      (fun l ->
        [ (l ^ ".alloc_kw", sum "op" (fun r -> r.Trace.r_minor) l /. ops /. 1000.0);
          (l ^ ".major_kw", sum "op" (fun r -> r.Trace.r_major) l /. ops /. 1000.0) ])
      alloc_layers
  @ List.map
      (fun p ->
        let runs = Trace.counted ("pass." ^ p ^ ".runs") in
        ( "pass." ^ p ^ ".changed_pct",
          if runs = 0.0 then 0.0 else 100.0 *. Trace.counted ("pass." ^ p ^ ".changed") /. runs ))
      (distinct passes)
  @ List.map
      (fun c -> (c, Option.value ~default:0.0 (List.assoc_opt c o.Measure.counts)))
      count_names
  @ [ ("trace.covered_pct", 100.0 *. covered /. total "op");
      ("trace.op_p50_ms", List.assoc "p50_ms" (Measure.window_metrics o.Measure.window)) ]

let end_to_end (o : Measure.outcome) : (string * float) list =
  [ ("setup_s", o.Measure.setup_s); ("peak_rss_mb", o.Measure.window.Measure.rss_mb) ]
  @ Measure.window_metrics o.Measure.window

let workloads =
  [ ("toolchain-O3", Toolchain.run); ("lifelong", Lifelong.run);
    ("serve-zipf", Serve.run Serve.Zipf); ("serve-churn", Serve.run Serve.Churn) ]

let usage () =
  prerr_endline
    "usage: e2e.exe [run] --workload W [--seed N] [--seconds S] [--trace 0|1] [--out FILE] \
     [--trace-file FILE]\n       e2e.exe diff OLD NEW";
  exit 2

let run (args : string list) : unit =
  let spec = spec () in
  let workload = ref "" and seed = ref 1 and trace = ref false in
  let seconds = ref (Json.to_num (Json.member "run_seconds" spec)) in
  let out = ref None and trace_file = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := t = "1"; parse rest
    | "--out" :: f :: rest -> out := Some f; parse rest
    | "--trace-file" :: f :: rest -> trace_file := Some f; parse rest
    | _ -> usage ()
  in
  parse args;
  let go =
    match List.assoc_opt !workload workloads with Some go -> go | None -> usage ()
  in
  if not (Steps.agrees_with_pipelines ()) then begin
    prerr_endline "e2e: Steps.level_passes no longer matches Pipelines.optimize_module";
    exit 2
  end;
  Trace.enabled := !trace;
  let o = go ~seed:!seed ~seconds:!seconds in
  let computed = if !trace then per_layer o else end_to_end o in
  let listed =
    Json.to_list (Json.member (if !trace then "per_layer" else "end_to_end") spec)
    |> List.map (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
  in
  (* the benchmark emits exactly what BENCHMARK.json lists *)
  let missing a b = List.filter (fun x -> not (List.mem x b)) a in
  let names_listed = List.map fst listed and names_computed = List.map fst computed in
  (match (missing names_computed names_listed, missing names_listed names_computed) with
  | [], [] -> ()
  | unlisted, absent ->
    Fmt.epr "e2e: BENCHMARK.json does not list: %s; the benchmark does not compute: %s@."
      (String.concat " " unlisted) (String.concat " " absent);
    exit 2);
  let w = o.Measure.window in
  let covered = List.assoc_opt "trace.covered_pct" computed in
  let covered_ok = match covered with Some c -> c >= 95.0 && c <= 105.0 | None -> true in
  if not covered_ok then
    prerr_endline "e2e: traced layer rows do not add up to the traced operation time";
  (* the trace's operations are exactly the window's: no warm-up *)
  let roots_ok =
    (not !trace)
    ||
    let traced = List.assoc_opt "op" (Trace.summarize ()).Trace.totals in
    Float.abs (Option.value ~default:0.0 traced -. w.Measure.busy) <= 1e-6 *. w.Measure.busy
  in
  if not roots_ok then
    prerr_endline "e2e: the traced operations are not the measured window's operations";
  Option.iter Trace.write_chrome !trace_file;
  let correct = o.Measure.correct && covered_ok && roots_ok in
  Measure.emit ?out:!out
    { Measure.workload = !workload; seed = !seed; seconds = !seconds;
      traced = !trace; correct; attempted = w.Measure.n; failed = w.Measure.failed;
      metrics = List.map (fun (name, unit_) -> (name, List.assoc name computed, unit_)) listed };
  if not correct then exit 1

let () =
  (* a signal still runs the at_exit clean-up: daemons stop, scratch goes *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  match List.tl (Array.to_list Sys.argv) with
  | "diff" :: [ old_; new_ ] -> exit (Diff.main old_ new_)
  | "run" :: args | args -> run args
