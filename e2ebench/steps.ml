(* The calls into lib/ that several workloads make, each inside its
   layer span, plus the per-layer counters they feed. *)

open Llvm_ir
open Llvm_workloads
module Pass = Llvm_transforms.Pass

(* The passes of [Pipelines.optimize_module ~level]: its level table,
   spelled out so every pass runs in its own span.  [agrees_with_pipelines]
   checks at start-up that the two still run the same passes. *)
let level_passes (level : int) : Pass.t list =
  let open Llvm_transforms.Pipelines in
  match level with
  | 2 -> per_module
  | 3 -> per_module @ link_time_ipo
  | _ -> invalid_arg "level_passes"

let optimize (level : int) (m : Ir.modul) : unit =
  List.iter
    (fun (p : Pass.t) ->
      (* rangeprop starts with a whole-module range analysis *)
      if !Trace.enabled && p.name = "rangeprop" then
        ignore (Trace.probe "range.rangeprop" (fun () -> Llvm_analysis.Range.analyze m));
      let changed = Trace.span ("pass." ^ p.name) (fun () -> Pass.run_pass p m) in
      Trace.count ("pass." ^ p.name ^ ".runs") 1.0;
      if changed then Trace.count ("pass." ^ p.name ^ ".changed") 1.0)
    (level_passes level)

(* Whether [optimize] and [Pipelines.optimize_module] produce the same
   bitcode, at -O2 and -O3, on one quick Table-1 program. *)
let agrees_with_pipelines () : bool =
  let src = Genprog.generate (Spec.quick (List.hd Spec.spec2000)) in
  List.for_all
    (fun level ->
      let compile () = Llvm_minic.Codegen.compile_string ~name:"agree" src in
      let ours = compile () and theirs = compile () in
      optimize level ours;
      Llvm_transforms.Pipelines.optimize_module ~level theirs;
      let encode m = fst (Llvm_bitcode.Encoder.encode m) in
      encode ours = encode theirs)
    [ 2; 3 ]

let genprog (p : Genprog.profile) : string = Trace.span "genprog" (fun () -> Genprog.generate p)

let minicc ~(name : string) (src : string) : Ir.modul =
  Trace.span "minicc" (fun () -> Llvm_minic.Codegen.compile_string ~name src)

let encode (m : Ir.modul) : string =
  Trace.span "encode" (fun () -> fst (Llvm_bitcode.Encoder.encode m))

(* [Loader.of_bytes], failing loudly: every payload the benchmark
   builds must load. *)
let load ~(name : string) (bytes : string) : Ir.modul =
  match Trace.span "loader" (fun () -> Llvm_serve.Loader.of_bytes ~name bytes) with
  | Ok m -> m
  | Error e -> failwith e

let verify (m : Ir.modul) : unit =
  match Trace.span "verify" (fun () -> Verify.verify_module m) with
  | [] -> ()
  | e :: _ -> failwith (Fmt.str "%a" Verify.pp_error e)

let instructions (m : Ir.modul) : int =
  List.fold_left (fun n f -> Ir.fold_instrs (fun n _ -> n + 1) n f) 0 m.Ir.mfuncs

(* A program's observable behaviour: status and output. *)
let behaviour (r : Llvm_exec.Interp.run_result) : string * string =
  let status =
    match r.Llvm_exec.Interp.status with
    | `Returned v -> Fmt.str "returned %a" Llvm_exec.Interp.pp_rtval v
    | `Unwound -> "unwound"
    | `Exited c -> Fmt.str "exited %d" c
    | `Trapped msg -> "trapped: " ^ msg
  in
  (status, r.Llvm_exec.Interp.output)

(* The interpreter tier on a fresh machine: the reference every
   optimized run is compared against. *)
let reference ?(fuel = 50_000_000) (m : Ir.modul) : string * string =
  Trace.span "engine.run" (fun () ->
      behaviour (fst (Llvm_exec.Engine.run_main ~fuel Llvm_exec.Engine.Interp_tier m)))

(* Quick-sized variants of the Table-1 and Olden/Ptrdist profiles, with
   generator seeds drawn from [rng]. *)
let variants (rng : Rng.t) ~(per_profile : int) : Genprog.profile list =
  List.concat_map
    (fun (p : Genprog.profile) ->
      List.init per_profile (fun k ->
          { (Spec.quick p) with
            Genprog.p_name = Printf.sprintf "%s.v%d" p.Genprog.p_name k;
            seed = Rng.int rng 1_000_000_000 }))
    (Spec.spec2000 @ Spec.disciplined)

(* [a] shuffled in place by [rng] (Fisher-Yates), and returned. *)
let shuffle (rng : Rng.t) (a : 'a array) : 'a array =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A scratch directory for one run, inside the checkout, removed at
   exit. *)
let scratch : string Lazy.t =
  lazy
    (let dir = Printf.sprintf ".bench_run/%d" (Unix.getpid ()) in
     let rec mkdir_p d =
       if not (Sys.file_exists d) then begin
         mkdir_p (Filename.dirname d);
         Sys.mkdir d 0o755
       end
     in
     mkdir_p dir;
     let rec rm path =
       if Sys.is_directory path then begin
         Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
         Sys.rmdir path
       end
       else Sys.remove path
     in
     at_exit (fun () ->
         (try rm dir with Sys_error _ -> ());
         try Sys.rmdir ".bench_run" with Sys_error _ -> ());
     dir)
