(* lifelong: the paper's Figure 4 loop.  Set-up ships the quick-sized
   Table-1 and Olden/Ptrdist programs as -O2 bitcode, simulates a fleet
   of field runs over eight seed-drawn inputs, and reoptimizes every
   program under the merged profile.  One operation is one reoptimized
   program's main, on its own warm tiered engine with the profile
   driving block layout; a round runs every program once, and each
   program's latency is its fastest over the window's rounds.  Executing
   generated code (dispatch, promotion, deopt) dominates here; compiling
   is set-up.

   Every round does exactly the same work, so a whole round as the
   operation would leave no spread between operations but the
   machine's: its tail would measure interference alone.  Per-program
   operations give the tail a meaning.

   The programs themselves are fixed: what the seed varies is what the
   field does with them, so round work is the same on every seed. *)

open Llvm_ir
open Llvm_workloads
module Engine = Llvm_exec.Engine
module Interp = Llvm_exec.Interp
module Fleet = Llvm_linker.Fleet
module Pgo = Llvm_transforms.Pgo

let fuel = 50_000_000

type shipped = {
  name : string;
  bitcode : string;  (* the -O2 image shipped to the field *)
  aggregate : Llvm_profile.Profile.t;
  reoptimized : Ir.modul;
  stats : Pgo.stats;
}

(* Eight distinct field inputs, weighted by a zipf schedule, and one
   held-out input the fleet never runs. *)
let field_inputs ~(seed : int) : (int * int) list * int =
  let rng = Rng.create (0x11fe + seed) in
  let rec draw acc =
    if List.length acc = 9 then acc
    else
      let v = 2 + Rng.int rng 100_000 in
      draw (if List.mem v acc then acc else v :: acc)
  in
  match draw [] with
  | holdout :: inputs ->
    let schedule = Fleet.zipf_schedule ~distinct:8 ~total:2000 in
    (List.map2 (fun v (_, weight) -> (v, weight)) inputs schedule, holdout)
  | [] -> assert false

let ship ~(dir : string) ~(schedule : (int * int) list) (p : Genprog.profile) : shipped =
  let name = p.Genprog.p_name in
  let m = Steps.minicc ~name (Steps.genprog p) in
  Steps.optimize 2 m;
  let bitcode = Steps.encode m in
  let report =
    Trace.span "fleet.simulate" (fun () ->
        Fleet.simulate ~dir:(Filename.concat dir name) ~input_global:Genprog.input_global
          ~schedule (Steps.load ~name bitcode))
  in
  let reoptimized = Steps.load ~name bitcode in
  let stats =
    Trace.span "pgo.optimize" (fun () -> Pgo.optimize report.Fleet.aggregate reoptimized)
  in
  Steps.verify reoptimized;
  { name; bitcode; aggregate = report.Fleet.aggregate; reoptimized; stats }

let run ~(seed : int) ~(seconds : float) : Measure.outcome =
  let schedule, holdout = field_inputs ~seed in
  let profiles = List.map Spec.quick (Spec.spec2000 @ Spec.disciplined) in
  let rep = ref 0 in
  let setups, setup_s =
    Measure.setup (fun () ->
        incr rep;
        let dir = Filename.concat (Lazy.force Steps.scratch) (Printf.sprintf "fleet%d" !rep) in
        List.map (ship ~dir ~schedule) profiles)
  in
  let programs = List.hd setups in
  (* set-up is deterministic: every repetition reoptimizes identically *)
  let canonical l = List.map (fun s -> Llvm_bitcode.Digest.of_module s.reoptimized) l in
  let deterministic = List.for_all (fun l -> canonical l = canonical programs) setups in
  let engines =
    List.map
      (fun s ->
        let e =
          Trace.span "engine.create" (fun () ->
              Engine.create ~profile:s.aggregate Engine.Tiered s.reoptimized)
        in
        (e, Option.get (Ir.find_func s.reoptimized "main")))
      programs
  in
  let engines = Array.of_list engines in
  let n = Array.length engines in
  let first = Array.make n None and stable = ref true in
  let run_main ((e : Engine.t), main) =
    Buffer.clear e.mach.Interp.out;
    let deopts = Engine.deopts e and promotions = List.length (Engine.promotions e) in
    let r = Trace.span "engine.run" (fun () -> Interp.run_function ~fuel e.mach main []) in
    Trace.count "exec.instrs" (float_of_int r.Interp.instructions);
    Trace.count "engine.deopts" (float_of_int (Engine.deopts e - deopts));
    Trace.count "engine.promotions" (float_of_int (List.length (Engine.promotions e) - promotions));
    Steps.behaviour r
  in
  let step (w : Measure.window) =
    let k = w.Measure.n mod n in
    let behaviour, seconds = Measure.op w (fun () -> run_main engines.(k)) in
    Measure.record w ~ok:true seconds;
    match first.(k) with
    | None -> first.(k) <- Some behaviour
    | Some b -> if b <> behaviour then stable := false
  in
  let window =
    Measure.run ~round:n ~warmup:1.0 ~seconds ~pid:"self" ~rss_after:(400 * n) step
  in
  let ops = float_of_int window.Measure.n in
  let total f = float_of_int (List.fold_left (fun n s -> n + f s) 0 programs) in
  let counts =
    List.map
      (fun c -> (c ^ "_per_op", Trace.counted c /. ops))
      [ "exec.instrs"; "engine.deopts"; "engine.promotions" ]
    @ [ ("suite.rounds", ops /. float_of_int n);
        ("pgo.promoted", total (fun s -> s.stats.Pgo.promoted));
        ("pgo.inlined", total (fun s -> s.stats.Pgo.inlined));
        ("profile.sites", total (fun s -> Llvm_profile.Profile.call_sites s.aggregate)) ]
  in
  (* every warm run behaves like the shipped program under the
     interpreter, and the reoptimized program matches the shipped one on
     an input the fleet never ran *)
  let shipped s = Llvm_bitcode.Decoder.decode s.bitcode in
  let warm_ok =
    List.for_all2
      (fun s b -> b = Some (Steps.reference ~fuel (shipped s)))
      programs (Array.to_list first)
  in
  let holdout_ok =
    List.for_all
      (fun s ->
        let input = (Genprog.input_global, holdout) in
        let base, _, _ = Fleet.field_run ~kind:Engine.Interp_tier ~input (shipped s) in
        let opt, _, _ = Fleet.field_run ~input ~profile:s.aggregate s.reoptimized in
        let same = Steps.behaviour base = Steps.behaviour opt in
        if not same then
          Fmt.epr "lifelong: %s: reoptimized program differs on the held-out input@." s.name;
        same)
      programs
  in
  if not (warm_ok && !stable) then
    Fmt.epr "lifelong: a warm round differs from the shipped program@.";
  if not deterministic then Fmt.epr "lifelong: set-up repetitions reoptimized differently@.";
  { Measure.setup_s; window;
    correct = warm_ok && !stable && holdout_ok && deterministic;
    counts }
