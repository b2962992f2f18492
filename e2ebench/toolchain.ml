(* toolchain-O3: the developer path minicc -> opt -O3 -> encode -> lli,
   one program per operation, cycling through a suite of seed-derived
   quick variants of the Table-1 and Olden/Ptrdist profiles plus the
   exception-heavy programs.  Pass and analysis work dominate; running
   the program is a small share.

   A round is one pass over the suite, starting from its first program,
   and each program's latency is its fastest over the window's rounds
   (see Measure.best).  The order is shuffled by the seed rather than
   grouped by profile, so that a traced-run window shorter than a round
   still sees a mix of profiles. *)

open Llvm_ir
open Llvm_workloads
module Engine = Llvm_exec.Engine
module Interp = Llvm_exec.Interp

let fuel = 50_000_000 (* lli's default *)

type program = { name : string; src : string; expected : string * string }

(* The suite, each program with its reference behaviour: the
   unoptimized front-end module under the interpreter tier. *)
let suite ~(seed : int) : program array =
  let rng = Rng.create (0x7001 + seed) in
  let genprog =
    List.map
      (fun (p : Genprog.profile) -> (p.Genprog.p_name, Steps.genprog p))
      (Steps.variants rng ~per_profile:8)
  in
  Steps.shuffle rng
    (Array.of_list
       (List.map
          (fun (name, src) ->
            { name; src; expected = Steps.reference ~fuel (Steps.minicc ~name src) })
          (genprog @ Ehprog.programs)))

(* One program through the whole path, the way minicc, opt -O3 and lli
   run it; returns its behaviour and the -O3 bitcode. *)
let compile_and_run { name; src; _ } : (string * string) * string =
  let m = Steps.minicc ~name src in
  Steps.optimize 3 m;
  Steps.verify m;
  let bitcode = Steps.encode m in
  let m = Steps.load ~name bitcode in
  Steps.verify m;
  let e = Trace.span "engine.create" (fun () -> Engine.create Engine.Tiered m) in
  let main = Option.get (Ir.find_func m "main") in
  let r = Trace.span "engine.run" (fun () -> Interp.run_function ~fuel e.Engine.mach main []) in
  (* the tiered engine forces a range analysis at its first promotion *)
  if !Trace.enabled then
    ignore (Trace.probe "range.engine" (fun () -> Llvm_analysis.Range.analyze m));
  Trace.count "ir.instrs" (float_of_int (Steps.instructions m));
  Trace.count "bitcode.bytes" (float_of_int (String.length bitcode));
  Trace.count "exec.instrs" (float_of_int r.Interp.instructions);
  Trace.count "engine.promotions" (float_of_int (List.length (Engine.promotions e)));
  Trace.count "engine.fast_ops" (float_of_int (Engine.fast_ops e));
  Trace.count "engine.deopts" (float_of_int (Engine.deopts e));
  (Steps.behaviour r, bitcode)

let run ~(seed : int) ~(seconds : float) : Measure.outcome =
  let suites, setup_s = Measure.setup (fun () -> suite ~seed) in
  let programs = List.hd suites in
  let deterministic = List.for_all (( = ) programs) suites in
  let n = Array.length programs in
  let first = Array.make n None and repeatable = ref true and matches = ref true in
  let step (w : Measure.window) =
    let k = w.Measure.n mod n in
    let p = programs.(k) in
    match Measure.op w (fun () -> compile_and_run p) with
    | ((behaviour, _) as result), seconds -> (
      Measure.record w ~ok:true seconds;
      (* the -O3 program behaves exactly like its front-end module under
         the interpreter, and every later round repeats the first *)
      if behaviour <> p.expected then begin
        Fmt.epr "toolchain-O3: %s: -O3 run differs from the interpreter reference@." p.name;
        matches := false
      end;
      match first.(k) with
      | None -> first.(k) <- Some result
      | Some r -> if r <> result then repeatable := false)
    | exception e ->
      Fmt.epr "toolchain-O3: %s: %s@." p.name (Printexc.to_string e);
      Measure.record w ~ok:false 0.0
  in
  let window = Measure.run ~round:n ~warmup:1.0 ~seconds ~pid:"self" ~rss_after:400 step in
  if not !repeatable then
    Fmt.epr "toolchain-O3: a program compiled or ran differently across rounds@.";
  if not deterministic then Fmt.epr "toolchain-O3: set-up produced different programs@.";
  let ops = float_of_int window.Measure.n in
  { Measure.setup_s; window;
    correct = !matches && !repeatable && deterministic;
    counts =
      ("suite.rounds", ops /. float_of_int n)
      :: List.map
           (fun c -> (c ^ "_per_op", Trace.counted c /. ops))
           [ "ir.instrs"; "bitcode.bytes"; "exec.instrs"; "engine.promotions"; "engine.fast_ops";
             "engine.deopts" ] }
