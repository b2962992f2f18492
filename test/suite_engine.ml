(* Differential tests for the tiered execution engine.

   The bytecode tier is only trustworthy if it is bit-for-bit
   indistinguishable from the interpreter: same status, same output,
   same dynamic instruction count (fuel), same block profile.  Every
   workload program — the genprog benchmarks, the exception-heavy
   programs, and randomly generated IR — runs in both tiers and must
   agree on everything observable. *)

open Llvm_ir
open Llvm_exec
open Llvm_workloads

let fuel = 100_000_000

(* Everything observable about a run, in comparable form. *)
type snap = {
  status : string;
  output : string;
  instructions : int;
  profile : (int * int) list;
}

let snapshot (r : Interp.run_result) (counts : (int, int) Hashtbl.t) : snap =
  let status =
    match r.Interp.status with
    | `Returned v -> Fmt.str "returned %a" Interp.pp_rtval v
    | `Unwound -> "unwound"
    | `Exited c -> Fmt.str "exited %d" c
    | `Trapped msg -> "trapped: " ^ msg
  in
  { status;
    output = r.Interp.output;
    instructions = r.Interp.instructions;
    profile =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []) }

let run_kind ?(fuel = fuel) (kind : Engine.kind) (m : Ir.modul) : snap =
  let r, p = Engine.run_main ~fuel ~profiling:true kind m in
  snapshot r p

(* [Tiered] shares the bytecode tier's dispatch, so one bytecode run
   covers both kinds. *)
let check_tiers_agree name (m : Ir.modul) =
  let reference = run_kind Engine.Interp_tier m in
  let got = run_kind Engine.Bytecode_tier m in
  let label what = Fmt.str "%s: bytecode %s" name what in
  Alcotest.(check string) (label "status") reference.status got.status;
  Alcotest.(check string) (label "output") reference.output got.output;
  Alcotest.(check int)
    (label "instruction count")
    reference.instructions got.instructions;
  Alcotest.(check (list (pair int int)))
    (label "block profile")
    reference.profile got.profile;
  reference

let test_genprog_differential () =
  List.iter
    (fun p ->
      let p = Spec.quick p in
      let snap = check_tiers_agree p.Genprog.p_name (Genprog.compile p) in
      Alcotest.(check bool)
        (p.Genprog.p_name ^ " produced a checksum")
        true
        (Astring_contains.contains snap.output "checksum="))
    (Spec.spec2000 @ Spec.disciplined)

let test_ehprog_differential () =
  List.iter
    (fun (name, src) -> ignore (check_tiers_agree name (Ehprog.compile name src)))
    Ehprog.programs

let test_ehprog_actually_throws () =
  (* the exception workloads must exercise unwinding, not just compile *)
  let name, src = List.hd Ehprog.programs in
  let m = Ehprog.compile name src in
  let has_invoke =
    List.exists
      (fun f ->
        List.exists
          (fun b -> List.exists (fun i -> i.Ir.iop = Ir.Invoke) b.Ir.instrs)
          f.Ir.fblocks)
      m.Ir.mfuncs
  in
  Alcotest.(check bool) (name ^ " contains invoke") true has_invoke;
  let unwinder =
    List.find (fun (n, _) -> n = "eh.unwind_off_main") Ehprog.programs
  in
  let m = Ehprog.compile (fst unwinder) (snd unwinder) in
  let snap = run_kind Engine.Bytecode_tier m in
  Alcotest.(check string) "uncaught exception unwinds" "unwound" snap.status

let test_random_ir_differential () =
  for seed = 1 to 25 do
    let m = Llvm_fuzz.Irgen.gen_module seed in
    (match Verify.verify_module m with
    | [] -> ()
    | _ -> Alcotest.failf "seed %d generated invalid IR" seed);
    ignore (check_tiers_agree (Fmt.str "rand%d" seed) m)
  done

let test_optimized_ir_differential () =
  (* optimized IR has the phi/cfg shapes the front-end never emits *)
  for seed = 1 to 10 do
    let m = Llvm_fuzz.Irgen.gen_module seed in
    Llvm_transforms.Pipelines.optimize_module ~level:3 m;
    ignore (check_tiers_agree (Fmt.str "rand%d -O3" seed) m)
  done

(* The default policy compiles a function to bytecode when it is first
   called (paper section 3.4): main first, then its loop's callee once,
   never a function nothing calls; and without profiling asked for, the
   run leaves no profile. *)
let test_tiered_compiles_on_first_call () =
  let src =
    {| int unused(int x) { return x - 1; }
       int twice(int x) { return x + x; }
       int main() {
         int sum = 0;
         for (int i = 0; i < 20; i++) sum = sum + twice(i);
         return sum;
       } |}
  in
  let m = Llvm_minic.Codegen.compile_string src in
  let e = Engine.create Engine.Tiered m in
  let main = Option.get (Ir.find_func m "main") in
  (match (Interp.run_function ~fuel e.Engine.mach main []).Interp.status with
  | `Returned v ->
    Alcotest.(check string) "result" "380" (Fmt.str "%a" Interp.pp_rtval v)
  | _ -> Alcotest.fail "tiered run failed");
  Alcotest.(check (list string)) "compiled in first-call order, once each"
    [ "main"; "twice" ] (Engine.promotions e);
  let p = Engine.profile e in
  Alcotest.(check int) "no block counts" 0 (Llvm_profile.Profile.block_entries p);
  Alcotest.(check int) "no call-site counts" 0 (Llvm_profile.Profile.call_sites p)

let test_interp_tier_never_compiles () =
  let p = Spec.quick (List.hd Spec.spec2000) in
  let m = Genprog.compile p in
  let e = Engine.create Engine.Interp_tier m in
  let main = Option.get (Ir.find_func m "main") in
  ignore (Interp.run_function ~fuel e.Engine.mach main []);
  Alcotest.(check (list string)) "no bytecode compiled" [] (Engine.promotions e)

(* In-bounds stack-array accesses and divisions by a nonzero induction
   value take the guarded ops in the bytecode tier too, and agree
   bit-for-bit with the interpreter. *)
let test_stack_arrays_and_divisions_agree () =
  let src =
    {| int main() {
         int a[10];
         int sum = 0;
         for (int i = 0; i < 10; i++) a[i] = i * i;
         for (int i = 0; i < 10; i++) sum = sum + a[i] / (i + 1);
         return sum;
       } |}
  in
  let m = Llvm_minic.Codegen.compile_string src in
  ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Mem2reg.pass m);
  ignore (check_tiers_agree "stack arrays and divisions" m)

(* A tiered run of a module with no loads, stores or divisions compiles
   each function it calls and computes the expected result. *)
let test_ranges_not_forced_without_candidates () =
  let src =
    {| int step(int x) { return x * 3 + 1; }
       int main() {
         int sum = 0;
         for (int i = 0; i < 10; i++) sum = sum + step(i);
         return sum;
       } |}
  in
  let m = Llvm_minic.Codegen.compile_string src in
  ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Mem2reg.pass m);
  let e = Engine.create Engine.Tiered m in
  let main = Option.get (Ir.find_func m "main") in
  (match (Interp.run_function ~fuel e.Engine.mach main []).Interp.status with
  | `Returned v ->
    Alcotest.(check string) "result" "145" (Fmt.str "%a" Interp.pp_rtval v)
  | _ -> Alcotest.fail "tiered run failed");
  Alcotest.(check (list string)) "main and step compiled" [ "main"; "step" ]
    (Engine.promotions e)

let test_div_trap_in_all_tiers () =
  let src = {| int main() { int z = 0; return 10 / z; } |} in
  let m = Llvm_minic.Codegen.compile_string src in
  ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Mem2reg.pass m);
  let reference = check_tiers_agree "divtrap" m in
  Alcotest.(check bool) "division by zero still traps" true
    (Astring_contains.contains reference.status "division by zero")

(* The frees and accesses that memory rejects trap with the same text in
   every tier.  The use-after-free cases run after 100,000 blocks have
   been allocated and freed, so the freed slots they touch sit among many
   others. *)
let test_memory_traps_in_all_tiers () =
  let churn =
    {| int churn() {
         for (int i = 0; i < 100000; i++) {
           int* p = new int[4];
           p[0] = i;
           delete p;
         }
         return 0;
       }
       int* local() { int x = 5; return &x; } |}
  in
  List.iter
    (fun (name, body, expected) ->
      let m = Llvm_minic.Codegen.compile_string (churn ^ body) in
      let reference = check_tiers_agree name m in
      Alcotest.(check string) (name ^ ": trap text") ("trapped: " ^ expected)
        reference.status)
    [ ( "double free",
        {| int main() { int* p = new int[4]; delete p; delete p; return 0; } |},
        "double free" );
      ( "stack free",
        {| int main() { int x = 1; delete &x; return x; } |},
        "free of stack memory" );
      ( "interior free",
        {| int main() { int* p = new int[4]; delete &p[1]; return 0; } |},
        "free of interior pointer" );
      ( "heap use after free",
        {| int main() {
             churn();
             int* p = new int[4];
             p[0] = 7;
             delete p;
             return p[0];
           } |},
        "use after free" );
      ( "stack use after return",
        {| int main() { churn(); int* p = local(); return *p; } |},
        "use after free" ) ]

(* -- Speculative promotion and deoptimization ------------------------------

   A fleet profile promotes a biased indirect call into a guarded
   direct call (Pgo.promote); runs whose live target differs from the
   prediction must take the deopt arm, whose original indirect call
   compiles and runs its target like any other call, and still produce
   bit-identical observable behavior. *)

(* One instrumented interpreter run of a fresh copy of [src], keyed by
   name so it survives recompilation. *)
let train_profile (src : string) : Llvm_profile.Profile.t =
  let m = Llvm_minic.Codegen.compile_string src in
  let e = Engine.create ~profiling:true Engine.Interp_tier m in
  let main = Option.get (Ir.find_func m "main") in
  (match (Interp.run_function ~fuel e.Engine.mach main []).Interp.status with
  | `Returned _ | `Exited _ -> ()
  | _ -> Alcotest.fail "training run did not complete");
  Engine.profile e

(* Promote under the trained profile and check: the module stays valid,
   the tiers still agree with each other, and behavior is identical to
   the unspeculated module.  Returns the deopts and the functions
   compiled, in first-call order, of a bytecode run of the speculated
   module. *)
let check_speculation name (src : string) : int * string list =
  let baseline = run_kind Engine.Interp_tier (Llvm_minic.Codegen.compile_string src) in
  let profile = train_profile src in
  let m = Llvm_minic.Codegen.compile_string src in
  let promoted = Llvm_transforms.Pgo.promote profile m in
  Alcotest.(check bool) (name ^ ": a site was promoted") true (promoted > 0);
  (match Verify.verify_module m with
  | [] -> ()
  | e :: _ ->
    Alcotest.failf "%s: speculated module invalid: %s: %s" name
      e.Verify.where e.Verify.what);
  let got = check_tiers_agree (name ^ " speculated") m in
  Alcotest.(check string) (name ^ ": status preserved") baseline.status
    got.status;
  Alcotest.(check string) (name ^ ": output preserved") baseline.output
    got.output;
  let e = Engine.create Engine.Bytecode_tier m in
  let main = Option.get (Ir.find_func m "main") in
  ignore (Interp.run_function ~fuel e.Engine.mach main []);
  (Engine.deopts e, Engine.promotions e)

let test_speculation_deopt_midrun () =
  (* 90 calls through [one], then the pointer flips to [big]: the guard
     must fail exactly 10 times, and the first failure's indirect call
     compiles [big] *)
  let src =
    {| int one(int x) { return x + 1; }
       int big(int x) { return x * 7 - 2; }
       int main() {
         int (*)(int) f = one;
         int acc = 0;
         for (int i = 0; i < 100; i++) {
           if (i == 90) f = big;
           acc = acc + f(acc % 13 + i);
         }
         return acc & 127;
       } |}
  in
  let deopts, compiled = check_speculation "midrun" src in
  Alcotest.(check int) "guard failed once per post-flip call" 10 deopts;
  Alcotest.(check (list string)) "the deopted target compiled on its first call"
    [ "main"; "one"; "big" ] compiled

let test_speculation_deopt_monomorphic () =
  (* the profile's prediction always holds: no deopts at all *)
  let src =
    {| int only(int x) { return x * 3 + 1; }
       int main() {
         int (*)(int) f = only;
         int acc = 0;
         for (int i = 0; i < 50; i++) acc = acc + f(i);
         return acc & 127;
       } |}
  in
  let deopts, compiled = check_speculation "mono" src in
  Alcotest.(check int) "no guard failures" 0 deopts;
  Alcotest.(check (list string)) "only the predicted target compiled"
    [ "main"; "only" ] compiled

let test_speculation_deopt_invoke () =
  (* the indirect site sits inside a try block (an invoke), and the
     mispredicted target throws: the deopt arm's invoke must unwind
     into the original landing pad *)
  let src =
    {| extern void print_int(int x);
       int calm(int x) { return x + 2; }
       int boom(int x) { if (x % 3 == 0) throw x + 1; return x - 1; }
       int main() {
         int (*)(int) f = calm;
         int acc = 0;
         for (int i = 0; i < 120; i++) {
           if (i > 99) f = boom;
           try { acc = acc + f(i); } catch (int e) { acc = acc - e; }
         }
         print_int(acc);
         return acc & 63;
       } |}
  in
  let deopts, compiled = check_speculation "invoke" src in
  Alcotest.(check int) "guard failed once per boom call" 20 deopts;
  Alcotest.(check (list string)) "the deopted target compiled on its first call"
    [ "main"; "calm"; "boom" ] compiled

(* -- Comparing two runs, exit codes, the fuel trap ------------------------- *)

let parse src =
  try Llvm_asm.Parser.parse_module src
  with Llvm_asm.Parser.Parse_error (msg, line) ->
    Alcotest.failf "parse error at line %d: %s" line msg

(* One interpreter run of [m]'s main with the global [%input] set to
   [input] first, as {!Interp.differences} takes it. *)
let run_input ?(profiling = false) ?(input = 0) (m : Ir.modul) =
  let e = Engine.create ~profiling Engine.Interp_tier m in
  let mach = e.Engine.mach in
  Option.iter
    (fun g ->
      Interp.store_sized mach
        (Llvm_analysis.Ids.find mach.Interp.globals g.Ir.gid)
        ~size:4
        (Interp.Rint (Ltype.Int, Int64.of_int input)))
    (Ir.find_gvar m "input");
  (Interp.run_loaded ~fuel mach, mach.Interp.block_counts)

let print_const n =
  parse
    (Fmt.str
       {|
declare void %%print_int(int)
int %%main() {
entry:
  call void %%print_int(int %d)
  ret int 0
}
|}
       n)

let test_differences_table () =
  (* [%input] picks one of two blocks of equal length *)
  let branchy =
    parse
      {|
%input = global int 0
int %main() {
entry:
  %x = load int* %input
  %c = seteq int %x, 0
  br bool %c, label %a, label %b
a:
  br label %done
b:
  br label %done
done:
  ret int 7
}
|}
  in
  let short = parse {|
int %main() {
entry:
  ret int 0
}
|} in
  let long =
    parse {|
int %main() {
entry:
  %x = add int 1, 2
  ret int 0
}
|}
  in
  let sum =
    parse {|
double %main() {
entry:
  %s = add double 0.1, 0.2
  ret double %s
}
|}
  in
  let third =
    parse {|
double %main() {
entry:
  %s = add double 0.0, 0.3
  ret double %s
}
|}
  in
  let nan =
    parse {|
double %main() {
entry:
  %s = div double 0.0, 0.0
  ret double %s
}
|}
  in
  let print1 = print_const 1 and print2 = print_const 2 in
  let fields =
    Alcotest.testable
      (Fmt.list ~sep:Fmt.comma (Fmt.of_to_string Interp.field_name))
      ( = )
  in
  List.iter
    (fun (what, a, b, expected) ->
      Alcotest.check fields what expected (Interp.differences a b))
    [ ("equal runs", run_input ~profiling:true branchy,
       run_input ~profiling:true branchy, []);
      ("output only", run_input print1, run_input print2, [ Interp.Output ]);
      ("instruction count only", run_input short, run_input long,
       [ Interp.Instructions ]);
      ("block profile only", run_input ~profiling:true branchy,
       run_input ~profiling:true ~input:1 branchy, [ Interp.Profile ]);
      ("0.1 + 0.2 vs 0.3", run_input sum, run_input third, [ Interp.Status ]);
      ("NaN vs the same NaN", run_input nan, run_input nan, []) ];
  (* the two doubles print alike: only the exact comparison tells *)
  let status m = Interp.status_to_string (fst (run_input m)).Interp.status in
  Alcotest.(check string) "0.1 + 0.2 prints as 0.3" (status third) (status sum)

let test_exit_codes () =
  List.iter
    (fun (status, expected) ->
      Alcotest.(check int) (Interp.status_to_string status) expected
        (Interp.exit_code status))
    [ (`Returned (Interp.Rint (Ltype.Int, 55L)), 55);
      (`Returned (Interp.Rint (Ltype.Int, 300L)), 44);
      (`Returned (Interp.Rint (Ltype.Int, -1L)), 255);
      (`Returned (Interp.Rfloat (Ltype.Double, 3.0)), 0);
      (`Returned Interp.Rvoid, 0);
      (`Exited 7, 7);
      (`Exited 263, 7);
      (`Unwound, 120);
      (`Trapped "division by zero", 121) ]

let test_out_of_fuel () =
  let loop =
    parse {|
int %main() {
entry:
  br label %loop
loop:
  br label %loop
}
|}
  in
  List.iter
    (fun kind ->
      let r, _ = Engine.run_main ~fuel:100 kind loop in
      Alcotest.(check bool) (Engine.kind_name kind ^ " ran out of fuel") true
        (Interp.out_of_fuel r))
    [ Engine.Interp_tier; Engine.Bytecode_tier ];
  let r, _ =
    Engine.run_main Engine.Interp_tier
      (Llvm_minic.Codegen.compile_string {| int main() { int z = 0; return 1 / z; } |})
  in
  Alcotest.(check bool) "another trap is not out of fuel" false
    (Interp.out_of_fuel r)

(* -- The interpreter's frame traps -------------------------------------------

   Hand-built IR the verifier rejects, run under [Interp_tier]: each
   program reaches one of the interpreter's frame traps, whose exact
   texts are pinned here.  Two recursive programs check that every
   activation has its own frame: values survive an inner activation
   untouched, and an inner activation cannot read a value only an outer
   one evaluated. *)

let interp_status (m : Ir.modul) : string =
  let r, _ = Engine.run_main ~fuel Engine.Interp_tier m in
  Interp.status_to_string r.Interp.status

(* A module whose [main] returns [int] and is built by [body]. *)
let hand_built (body : Ir.modul -> Ir.block -> unit) : Ir.modul =
  let m = Ir.mk_module "hand" in
  let main = Ir.mk_func ~name:"main" ~return:(Ltype.Integer Ltype.Int) ~params:[] () in
  Ir.add_func m main;
  let entry = Ir.mk_block ~name:"entry" () in
  Ir.append_block main entry;
  body m entry;
  m

let test_interp_frame_traps () =
  let int = Ltype.Integer Ltype.Int in
  let ret (b : Ir.block) (v : Ir.value) =
    Ir.append_instr b (Ir.mk_instr ~ty:Ltype.Void Ir.Ret [ v ])
  in
  (* main returns an instruction that sits in a block it never runs *)
  let unevaluated =
    hand_built (fun m entry ->
        let main = Option.get (Ir.find_func m "main") in
        let dead = Ir.mk_block ~name:"dead" () in
        Ir.append_block main dead;
        let late =
          Ir.mk_instr ~name:"late" ~ty:int Ir.Add
            [ Ir.Vconst (Ir.cint Ltype.Int 1L); Ir.Vconst (Ir.cint Ltype.Int 2L) ]
        in
        Ir.append_instr dead late;
        ret dead (Ir.instr_value late);
        ret entry (Ir.instr_value late))
  in
  Alcotest.(check string) "unevaluated instruction"
    "trapped: read of unevaluated instruction %late" (interp_status unevaluated);
  (* main returns an argument of another function *)
  let unbound =
    hand_built (fun m entry ->
        let other = Ir.mk_func ~name:"other" ~return:int ~params:[ ("n", int) ] () in
        Ir.add_func m other;
        let body = Ir.mk_block ~name:"entry" () in
        Ir.append_block other body;
        let n = List.hd other.Ir.fargs in
        ret body (Ir.Varg n);
        ret entry (Ir.Varg n))
  in
  Alcotest.(check string) "unbound argument" "trapped: unbound argument %n"
    (interp_status unbound);
  (* main calls a one-argument function with none *)
  let arity =
    hand_built (fun m entry ->
        let callee = Ir.mk_func ~name:"callee" ~return:int ~params:[ ("n", int) ] () in
        Ir.add_func m callee;
        let body = Ir.mk_block ~name:"entry" () in
        Ir.append_block callee body;
        ret body (Ir.Varg (List.hd callee.Ir.fargs));
        let call = Ir.mk_instr ~name:"r" ~ty:int Ir.Call [ Ir.Vfunc callee ] in
        Ir.append_instr entry call;
        ret entry (Ir.instr_value call))
  in
  Alcotest.(check string) "arity mismatch" "trapped: arity mismatch calling callee"
    (interp_status arity);
  (* [%n] and [%m] are read after the recursive call wrote its own:
     f(3) = 30 + f(2) + 2, f(2) = 20 + f(1) + 1, f(1) = 10, f(0) = 0 *)
  let interleaved =
    parse
      {|
int %f(int %n) {
entry:
  %c = setle int %n, 0
  br bool %c, label %base, label %rec
base:
  ret int 0
rec:
  %m = sub int %n, 1
  %r = call int %f(int %m)
  %s = mul int %n, 10
  %t = add int %s, %r
  %u = add int %t, %m
  ret int %u
}
int %main() {
entry:
  %v = call int %f(int 3)
  ret int %v
}
|}
  in
  ignore (check_tiers_agree "interleaved" interleaved);
  Alcotest.(check string) "activations keep their own values" "returned 63"
    (interp_status interleaved);
  (* the outer activation evaluates [%x]; the inner one, which never
     does, must not see it *)
  let per_activation =
    parse
      {|
int %g(int %n) {
entry:
  %c = setgt int %n, 0
  br bool %c, label %set, label %read
set:
  %x = add int %n, 5
  %r = call int %g(int 0)
  ret int %r
read:
  ret int %x
}
int %main() {
entry:
  %v = call int %g(int 1)
  ret int %v
}
|}
  in
  Alcotest.(check string) "frames are per activation"
    "trapped: read of unevaluated instruction %x" (interp_status per_activation)

let tests =
  [ Alcotest.test_case "genprog workloads agree across tiers" `Slow
      test_genprog_differential;
    Alcotest.test_case "exception workloads agree across tiers" `Quick
      test_ehprog_differential;
    Alcotest.test_case "exception workloads exercise unwinding" `Quick
      test_ehprog_actually_throws;
    Alcotest.test_case "random IR agrees across tiers" `Quick
      test_random_ir_differential;
    Alcotest.test_case "optimized random IR agrees across tiers" `Quick
      test_optimized_ir_differential;
    Alcotest.test_case "tiered engine compiles each function on its first call"
      `Quick test_tiered_compiles_on_first_call;
    Alcotest.test_case "interp tier never compiles" `Quick
      test_interp_tier_never_compiles;
    Alcotest.test_case "stack arrays and divisions agree across tiers" `Quick
      test_stack_arrays_and_divisions_agree;
    Alcotest.test_case "ranges are not computed without fast-op candidates"
      `Quick test_ranges_not_forced_without_candidates;
    Alcotest.test_case "division by zero traps in every tier" `Quick
      test_div_trap_in_all_tiers;
    Alcotest.test_case "memory traps keep their texts in every tier" `Quick
      test_memory_traps_in_all_tiers;
    Alcotest.test_case "speculation deopts when the target flips mid-run"
      `Quick test_speculation_deopt_midrun;
    Alcotest.test_case "speculation never deopts on a monomorphic site"
      `Quick test_speculation_deopt_monomorphic;
    Alcotest.test_case "speculation deopts inside an invoke landing pad"
      `Quick test_speculation_deopt_invoke;
    Alcotest.test_case "differences names exactly the differing fields"
      `Quick test_differences_table;
    Alcotest.test_case "exit code of every status" `Quick test_exit_codes;
    Alcotest.test_case "out_of_fuel recognizes the fuel trap in every tier"
      `Quick test_out_of_fuel;
    Alcotest.test_case "interpreter frame traps keep their texts" `Quick
      test_interp_frame_traps ]
