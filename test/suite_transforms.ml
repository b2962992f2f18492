(* Transformation tests.

   Each pass is checked two ways: (a) it does the specific rewrite it
   promises (structure checks), and (b) it preserves semantics — the
   module is executed before and after and the observable results
   (return value, output, trap status) must agree. *)

open Llvm_ir
open Ir
open Llvm_exec
open Llvm_transforms

let snapshot (m : modul) : string =
  (* run and render the observable behaviour *)
  let r = Interp.run_main m in
  let status =
    match r.Interp.status with
    | `Returned v -> Fmt.str "ret %a" Interp.pp_rtval v
    | `Unwound -> "unwound"
    | `Exited c -> Printf.sprintf "exit %d" c
    | `Trapped msg -> "trap " ^ msg
  in
  status ^ "|" ^ r.Interp.output

let reparse (m : modul) : modul =
  Llvm_asm.Parser.parse_module ~name:m.mname (Printer.module_to_string m)

(* Run [p] on a copy of [m]; check the verifier, SSA and semantics. *)
let check_pass_preserves (p : Pass.t) (m : modul) : modul =
  let before = snapshot (reparse m) in
  let opt = reparse m in
  ignore (Pass.run_pass p opt);
  (match Verify.verify_module opt with
  | [] -> ()
  | errs ->
    Alcotest.failf "%s broke module invariants on %s: %s" p.Pass.name m.mname
      (Fmt.str "%a" Fmt.(list Verify.pp_error) errs));
  Llvm_analysis.Ssa_check.assert_ssa opt;
  let after = snapshot opt in
  Alcotest.(check string)
    (Printf.sprintf "%s preserves semantics of %s" p.Pass.name m.mname)
    before after;
  opt

let count_op (m : modul) (op : opcode) : int =
  List.fold_left
    (fun n f -> fold_instrs (fun n i -> if i.iop = op then n + 1 else n) n f)
    0 m.mfuncs

(* -- A shared example: factorial with a main ----------------------------- *)

let fact_with_main () =
  let m = Samples.fact_module () in
  let b = Builder.for_module m in
  let _main = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let f = Option.get (find_func m "fact") in
  let r = Builder.build_call b (Vfunc f) [ Vconst (cint Ltype.Int 6L) ] in
  ignore (Builder.build_ret b (Some r));
  m

let exceptions_with_main throw_flag =
  let m = Samples.exceptions_module () in
  let b = Builder.for_module m in
  let _main = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let caller = Option.get (find_func m "caller") in
  let r = Builder.build_call b (Vfunc caller) [ Vconst (Cbool throw_flag) ] in
  ignore (Builder.build_ret b (Some r));
  m

(* -- mem2reg -------------------------------------------------------------- *)

let test_mem2reg_promotes () =
  let m = fact_with_main () in
  let opt = check_pass_preserves Mem2reg.pass m in
  Alcotest.(check int) "all allocas promoted" 0 (count_op opt Alloca);
  Alcotest.(check bool) "phis inserted" true (count_op opt Phi > 0)

let test_mem2reg_skips_escaping () =
  (* an alloca whose address is passed to a function must survive *)
  let m = mk_module "escape" in
  let b = Builder.for_module m in
  let sink =
    mk_func ~linkage:External ~name:"sink" ~return:Ltype.void
      ~params:[ ("p", Ltype.pointer Ltype.int_) ] ()
  in
  add_func m sink;
  let _main = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let p = Builder.build_alloca b Ltype.int_ in
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 3L)) p);
  ignore (Builder.build_call b (Vfunc sink) [ p ]);
  let v = Builder.build_load b p in
  ignore (Builder.build_ret b (Some v));
  ignore (Pass.run_pass Mem2reg.pass m);
  Alcotest.(check int) "escaping alloca kept" 1 (count_op m Alloca);
  Verify.assert_valid m

(* -- scalarrepl + mem2reg -------------------------------------------------- *)

let test_sroa () =
  let m = mk_module "sroa" in
  let b = Builder.for_module m in
  let pair = Ltype.struct_ [ Ltype.int_; Ltype.int_ ] in
  let _main = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let p = Builder.build_alloca b ~name:"pair" pair in
  let a_slot = Builder.build_gep_const b p [ 0; 0 ] in
  let b_slot = Builder.build_gep_const b p [ 0; 1 ] in
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 30L)) a_slot);
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 12L)) b_slot);
  let x = Builder.build_load b a_slot in
  let y = Builder.build_load b b_slot in
  ignore (Builder.build_ret b (Some (Builder.build_add b x y)));
  let opt = check_pass_preserves Sroa.pass m in
  Alcotest.(check int) "struct alloca split" 2 (count_op opt Alloca);
  Alcotest.(check int) "geps are gone" 0 (count_op opt Gep);
  (* and afterwards mem2reg finishes the job *)
  ignore (Pass.run_pass Mem2reg.pass opt);
  Alcotest.(check int) "fields promoted" 0 (count_op opt Alloca)

(* -- constprop -------------------------------------------------------------- *)

let test_constprop_folds () =
  let m = mk_module "cp" in
  let b = Builder.for_module m in
  let _main = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let two = Vconst (cint Ltype.Int 2L) in
  let v1 = Builder.build_add b two two in
  let v2 = Builder.build_mul b v1 v1 in
  let v3 = Builder.build_sub b v2 (Vconst (cint Ltype.Int 6L)) in
  ignore (Builder.build_ret b (Some v3));
  let opt = check_pass_preserves Constprop.pass m in
  let main = Option.get (find_func opt "main") in
  Alcotest.(check int) "folded to a single ret" 1 (instr_count main)

let test_constprop_vtable_load () =
  (* load from a constant table folds; the call becomes direct *)
  let m = mk_module "devirt" in
  let b = Builder.for_module m in
  let target =
    Builder.start_function b m ~linkage:Internal "target" Ltype.int_ []
  in
  ignore (Builder.build_ret b (Some (Vconst (cint Ltype.Int 99L))));
  let fpty = Ltype.pointer (Ltype.func Ltype.int_ []) in
  let vtbl =
    mk_gvar ~linkage:Internal ~constant:true ~name:"vtable"
      ~ty:(Ltype.array 2 fpty)
      ~init:(Carray (fpty, [ Cfunc target; Cfunc target ]))
      ()
  in
  add_gvar m vtbl;
  let _main = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let slot = Builder.build_gep_const b (Vglobal vtbl) [ 0; 1 ] in
  let fp = Builder.build_load b slot in
  let r = Builder.build_call b fp [] in
  ignore (Builder.build_ret b (Some r));
  let opt = check_pass_preserves Constprop.pass m in
  let main = Option.get (find_func opt "main") in
  let direct = ref false in
  iter_instrs
    (fun i ->
      if i.iop = Call then
        match call_callee i with
        | Vfunc f when f.fname = "target" -> direct := true
        | _ -> ())
    main;
  Alcotest.(check bool) "virtual call resolved to direct call" true !direct

(* -- simplifycfg ------------------------------------------------------------ *)

let test_simplifycfg_constant_branch () =
  let m = mk_module "cfg" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let t = Builder.append_new_block b f "t" in
  let e = Builder.append_new_block b f "e" in
  ignore (Builder.build_condbr b (Vconst (Cbool true)) t e);
  Builder.position_at_end b t;
  ignore (Builder.build_ret b (Some (Vconst (cint Ltype.Int 1L))));
  Builder.position_at_end b e;
  ignore (Builder.build_ret b (Some (Vconst (cint Ltype.Int 2L))));
  let opt = check_pass_preserves Simplify_cfg.pass m in
  let main = Option.get (find_func opt "main") in
  Alcotest.(check int) "collapsed to one block" 1 (List.length main.fblocks)

let test_simplifycfg_switch () =
  let m = mk_module "sw" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let c1 = Builder.append_new_block b f "c1" in
  let c2 = Builder.append_new_block b f "c2" in
  let d = Builder.append_new_block b f "d" in
  ignore
    (Builder.build_switch b (Vconst (cint Ltype.Int 2L)) d
       [ (cint Ltype.Int 1L, c1); (cint Ltype.Int 2L, c2) ]);
  Builder.position_at_end b c1;
  ignore (Builder.build_ret b (Some (Vconst (cint Ltype.Int 10L))));
  Builder.position_at_end b c2;
  ignore (Builder.build_ret b (Some (Vconst (cint Ltype.Int 20L))));
  Builder.position_at_end b d;
  ignore (Builder.build_ret b (Some (Vconst (cint Ltype.Int 30L))));
  let opt = check_pass_preserves Simplify_cfg.pass m in
  Alcotest.(check string) "result is 20" "ret 20|" (snapshot opt);
  Alcotest.(check int) "switch folded" 0 (count_op opt Switch)

(* -- gvn --------------------------------------------------------------------- *)

let test_gvn_merges () =
  let m = mk_module "gvn" in
  let b = Builder.for_module m in
  let f =
    Builder.start_function b m ~linkage:External "main" Ltype.int_ []
  in
  ignore f;
  let slot = Builder.build_alloca b Ltype.int_ in
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 7L)) slot);
  let x = Builder.build_load b slot in
  let a = Builder.build_add b x x in
  let bb = Builder.build_add b x x in
  (* duplicate of a *)
  let s = Builder.build_mul b a bb in
  ignore (Builder.build_ret b (Some s));
  let opt = check_pass_preserves Gvn.pass m in
  Alcotest.(check int) "one add remains" 1 (count_op opt Add)

(* Casts of constants that print alike but have different types must
   not merge: ulong -1 is 2^64-1 as a double, long -1 is -1.0. *)
let test_gvn_keeps_typed_constants_apart () =
  let m =
    Llvm_asm.Parser.parse_module ~name:"gvn-typed-consts"
      {|
int %main() {
entry:
  %a = cast ulong -1 to double
  %b = cast long -1 to double
  %c = setlt double %b, 0.0
  %r = cast bool %c to int
  ret int %r
}
|}
  in
  Alcotest.(check string) "main returns 1 before gvn" "ret 1|" (snapshot m);
  let opt = check_pass_preserves Gvn.pass m in
  Alcotest.(check int) "both constant casts kept" 3 (count_op opt Cast)

(* -- reassociate -------------------------------------------------------------- *)

let test_reassociate () =
  let m = mk_module "reassoc" in
  let b = Builder.for_module m in
  let f =
    Builder.start_function b m ~linkage:External "compute" Ltype.int_
      [ ("x", Ltype.int_); ("y", Ltype.int_) ]
  in
  let x = Varg (List.nth f.fargs 0) in
  let y = Varg (List.nth f.fargs 1) in
  (* ((x + 1) + y) + 2 *)
  let v1 = Builder.build_add b x (Vconst (cint Ltype.Int 1L)) in
  let v2 = Builder.build_add b v1 y in
  let v3 = Builder.build_add b v2 (Vconst (cint Ltype.Int 2L)) in
  ignore (Builder.build_ret b (Some v3));
  let b2 = Builder.for_module m in
  let _main = Builder.start_function b2 m ~linkage:External "main" Ltype.int_ [] in
  let r =
    Builder.build_call b2 (Vfunc f)
      [ Vconst (cint Ltype.Int 10L); Vconst (cint Ltype.Int 20L) ]
  in
  ignore (Builder.build_ret b2 (Some r));
  let opt = check_pass_preserves Reassociate.pass m in
  let compute = Option.get (find_func opt "compute") in
  (* after: (x + y) + 3  — still 3 instructions but only one constant *)
  let const_operands = ref 0 in
  iter_instrs
    (fun i ->
      if i.iop = Add then
        Array.iter
          (fun v -> match v with Vconst (Cint _) -> incr const_operands | _ -> ())
          i.operands)
    compute;
  Alcotest.(check int) "constants merged into one operand" 1 !const_operands

(* -- inline -------------------------------------------------------------------- *)

let test_inline_simple () =
  let m = fact_with_main () in
  (* make fact internal so the inliner may delete it afterwards *)
  (Option.get (find_func m "fact")).flinkage <- Internal;
  let opt = check_pass_preserves Inline.pass m in
  Alcotest.(check int) "no calls remain" 0 (count_op opt Call);
  Alcotest.(check bool) "fact deleted after inlining" true
    (find_func opt "fact" = None)

let test_inline_invoke_site () =
  List.iter
    (fun flag ->
      let m = exceptions_with_main flag in
      ignore (check_pass_preserves Inline.pass m))
    [ true; false ]

let test_inline_respects_recursion () =
  let m = mk_module "recinline" in
  let b = Builder.for_module m in
  let f =
    Builder.start_function b m ~linkage:Internal "selfcall" Ltype.int_
      [ ("n", Ltype.int_) ]
  in
  let n = Varg (List.hd f.fargs) in
  let base = Builder.append_new_block b f "base" in
  let rec_ = Builder.append_new_block b f "rec" in
  let c = Builder.build_setle b n (Vconst (cint Ltype.Int 0L)) in
  ignore (Builder.build_condbr b c base rec_);
  Builder.position_at_end b base;
  ignore (Builder.build_ret b (Some (Vconst (cint Ltype.Int 0L))));
  Builder.position_at_end b rec_;
  let n1 = Builder.build_sub b n (Vconst (cint Ltype.Int 1L)) in
  let r = Builder.build_call b (Vfunc f) [ n1 ] in
  ignore (Builder.build_ret b (Some r));
  let b2 = Builder.for_module m in
  let _main = Builder.start_function b2 m ~linkage:External "main" Ltype.int_ [] in
  let r = Builder.build_call b2 (Vfunc f) [ Vconst (cint Ltype.Int 3L) ] in
  ignore (Builder.build_ret b2 (Some r));
  let opt = check_pass_preserves Inline.pass m in
  Alcotest.(check bool) "recursive callee survives" true
    (find_func opt "selfcall" <> None)

(* -- dge ------------------------------------------------------------------------ *)

let test_dge_removes_dead_cycle () =
  let m = fact_with_main () in
  let b = Builder.for_module m in
  (* two dead internal functions calling each other, plus a dead global *)
  let da = mk_func ~linkage:Internal ~name:"dead_a" ~return:Ltype.void ~params:[] () in
  let db = mk_func ~linkage:Internal ~name:"dead_b" ~return:Ltype.void ~params:[] () in
  add_func m da;
  add_func m db;
  let blk_a = mk_block ~name:"entry" () in
  append_block da blk_a;
  Builder.position_at_end b blk_a;
  ignore (Builder.build_call b (Vfunc db) []);
  ignore (Builder.build_ret b None);
  let blk_b = mk_block ~name:"entry" () in
  append_block db blk_b;
  Builder.position_at_end b blk_b;
  ignore (Builder.build_call b (Vfunc da) []);
  ignore (Builder.build_ret b None);
  let dead_g =
    mk_gvar ~linkage:Internal ~name:"dead_table" ~ty:(Ltype.pointer (Ltype.func Ltype.void []))
      ~init:(Cfunc da) ()
  in
  add_gvar m dead_g;
  let stats = Dge.run m in
  Alcotest.(check int) "two dead functions deleted" 2 stats.Dge.deleted_functions;
  Alcotest.(check int) "dead global deleted" 1 stats.Dge.deleted_globals;
  Verify.assert_valid m;
  Alcotest.(check bool) "live code kept" true (find_func m "fact" <> None)

(* -- dae ------------------------------------------------------------------------ *)

let test_dae () =
  let m = mk_module "dae" in
  let b = Builder.for_module m in
  let f =
    Builder.start_function b m ~linkage:Internal "callee" Ltype.int_
      [ ("used", Ltype.int_); ("unused", Ltype.int_) ]
  in
  let used = Varg (List.nth f.fargs 0) in
  ignore (Builder.build_ret b (Some (Builder.build_add b used used)));
  (* a second callee whose return value nobody reads *)
  let g =
    Builder.start_function b m ~linkage:Internal "noret" Ltype.int_
      [ ("x", Ltype.int_) ]
  in
  ignore (Builder.build_ret b (Some (Varg (List.hd g.fargs))));
  let _main = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let r =
    Builder.build_call b (Vfunc f)
      [ Vconst (cint Ltype.Int 21L); Vconst (cint Ltype.Int 999L) ]
  in
  ignore (Builder.build_call b (Vfunc g) [ Vconst (cint Ltype.Int 1L) ]);
  ignore (Builder.build_ret b (Some r));
  let before = snapshot (reparse m) in
  let stats = Dae.run m in
  Verify.assert_valid m;
  Alcotest.(check int) "one argument removed" 1 stats.Dae.removed_args;
  Alcotest.(check int) "one return removed" 1 stats.Dae.removed_returns;
  Alcotest.(check int) "callee keeps one parameter" 1
    (List.length (Option.get (find_func m "callee")).fargs);
  Alcotest.(check string) "semantics preserved" before (snapshot m)

(* -- prune-eh -------------------------------------------------------------------- *)

let test_prune_eh () =
  let m = mk_module "prune" in
  let b = Builder.for_module m in
  let safe =
    Builder.start_function b m ~linkage:Internal "safe" Ltype.int_ []
  in
  ignore safe;
  ignore (Builder.build_ret b (Some (Vconst (cint Ltype.Int 5L))));
  let main = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let ok = Builder.append_new_block b main "ok" in
  let ex = Builder.append_new_block b main "ex" in
  let r = Builder.build_invoke b (Vfunc safe) [] ~normal:ok ~unwind:ex in
  Builder.position_at_end b ok;
  ignore (Builder.build_ret b (Some r));
  Builder.position_at_end b ex;
  ignore (Builder.build_ret b (Some (Vconst (cint Ltype.Int (-1L)))));
  let opt = check_pass_preserves Prune_eh.pass m in
  Alcotest.(check int) "invoke converted" 0 (count_op opt Invoke);
  let main = Option.get (find_func opt "main") in
  Alcotest.(check int) "dead handler removed" 2 (List.length main.fblocks)

(* -- tailrecelim ------------------------------------------------------------------ *)

let test_tailrec () =
  let m = mk_module "tail" in
  let b = Builder.for_module m in
  (* tail-recursive accumulator factorial *)
  let f =
    Builder.start_function b m ~linkage:Internal "loop" Ltype.int_
      [ ("n", Ltype.int_); ("acc", Ltype.int_) ]
  in
  let n = Varg (List.nth f.fargs 0) in
  let acc = Varg (List.nth f.fargs 1) in
  let base = Builder.append_new_block b f "base" in
  let rec_ = Builder.append_new_block b f "rec" in
  let c = Builder.build_setle b n (Vconst (cint Ltype.Int 1L)) in
  ignore (Builder.build_condbr b c base rec_);
  Builder.position_at_end b base;
  ignore (Builder.build_ret b (Some acc));
  Builder.position_at_end b rec_;
  let n1 = Builder.build_sub b n (Vconst (cint Ltype.Int 1L)) in
  let acc1 = Builder.build_mul b acc n in
  let r = Builder.build_call b (Vfunc f) [ n1; acc1 ] in
  ignore (Builder.build_ret b (Some r));
  let b2 = Builder.for_module m in
  let _main = Builder.start_function b2 m ~linkage:External "main" Ltype.int_ [] in
  let r =
    Builder.build_call b2 (Vfunc f)
      [ Vconst (cint Ltype.Int 6L); Vconst (cint Ltype.Int 1L) ]
  in
  ignore (Builder.build_ret b2 (Some r));
  let opt = check_pass_preserves Tailrec.pass m in
  let loop = Option.get (find_func opt "loop") in
  let self_calls = ref 0 in
  iter_instrs
    (fun i ->
      if i.iop = Call then
        match call_callee i with
        | Vfunc g when g == loop -> incr self_calls
        | _ -> ())
    loop;
  Alcotest.(check int) "self tail call removed" 0 !self_calls;
  Alcotest.(check string) "6! computed by loop" "ret 720|" (snapshot opt)

(* -- adce ---------------------------------------------------------------------------- *)

let test_adce () =
  let m = mk_module "adce" in
  let b = Builder.for_module m in
  let _main = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  (* a dead chain and a dead cycle of phis would both go *)
  let d1 = Builder.build_add b (Vconst (cint Ltype.Int 1L)) (Vconst (cint Ltype.Int 2L)) in
  let _d2 = Builder.build_mul b d1 d1 in
  ignore (Builder.build_ret b (Some (Vconst (cint Ltype.Int 0L))));
  let opt = check_pass_preserves Dce.adce_pass m in
  let main = Option.get (find_func opt "main") in
  Alcotest.(check int) "only the ret remains" 1 (instr_count main)

(* -- full pipelines ------------------------------------------------------------------- *)

let test_pipeline_preserves_samples () =
  let mains =
    [ fact_with_main (); exceptions_with_main true; exceptions_with_main false ]
  in
  List.iter
    (fun m ->
      let before = snapshot (reparse m) in
      let opt = reparse m in
      Pipelines.optimize_module ~level:3 opt;
      (match Verify.verify_module opt with
      | [] -> ()
      | errs ->
        Alcotest.failf "pipeline broke %s: %s" m.mname
          (Fmt.str "%a" Fmt.(list Verify.pp_error) errs));
      Alcotest.(check string) ("pipeline preserves " ^ m.mname) before (snapshot opt))
    mains

(* -- the pass runner's hooks ------------------------------------------------------ *)

(* A pass that records its own runs and reports a fixed changed flag. *)
let recording_pass log name changed =
  Pass.make ~name ~description:"test" (fun _ ->
      log := ("run " ^ name) :: !log;
      changed)

let test_hooks_fire_in_order () =
  let log = ref [] in
  let passes =
    [ recording_pass log "a" true; recording_pass log "b" false;
      recording_pass log "a" false ]
  in
  let hook tag =
    { Pass.before = (fun p _ -> log := Printf.sprintf "%s before %s" tag p.Pass.name :: !log);
      after =
        (fun p _ changed ->
          log := Printf.sprintf "%s after %s %b" tag p.Pass.name changed :: !log) }
  in
  let changed =
    Pass.run_sequence ~hooks:[ hook "h1"; hook "h2" ] passes (mk_module "hooks")
  in
  Alcotest.(check bool) "some pass changed the module" true changed;
  Alcotest.(check (list string)) "every hook fires once per pass, in order"
    [ "h1 before a"; "h2 before a"; "run a"; "h1 after a true"; "h2 after a true";
      "h1 before b"; "h2 before b"; "run b"; "h1 after b false"; "h2 after b false";
      "h1 before a"; "h2 before a"; "run a"; "h1 after a false"; "h2 after a false" ]
    (List.rev !log);
  Alcotest.(check bool) "no hooks, same result" true
    (Pass.run_sequence passes (mk_module "plain"))

exception Stop

let test_raising_before_hook_stops_run () =
  let log = ref [] in
  let passes = [ recording_pass log "a" true; recording_pass log "b" true ] in
  (* the deadline contract: a before-hook that raises means the pass
     it guards never runs *)
  let stop_at_b =
    { Pass.before = (fun p _ -> if p.Pass.name = "b" then raise Stop);
      after = (fun _ _ _ -> ()) }
  in
  (match Pass.run_sequence ~hooks:[ stop_at_b ] passes (mk_module "stop") with
  | _ -> Alcotest.fail "the hook's exception was swallowed"
  | exception Stop -> ());
  Alcotest.(check (list string)) "b never ran" [ "run a" ] (List.rev !log)

let test_level_table () =
  let names ps = List.map (fun p -> p.Pass.name) ps in
  List.iter
    (fun (level, expected) ->
      Alcotest.(check (list string))
        (Printf.sprintf "-O%d" level)
        (names expected)
        (names (Pipelines.passes ~level)))
    [ (0, []); (1, Pipelines.per_function_cleanup); (2, Pipelines.per_module);
      (3, Pipelines.per_module @ Pipelines.link_time_ipo) ];
  List.iter
    (fun level ->
      match Pipelines.passes ~level with
      | _ -> Alcotest.failf "level %d accepted" level
      | exception Invalid_argument _ -> ())
    [ -1; 4; 7 ]

let tests =
  [ Alcotest.test_case "mem2reg promotes allocas" `Quick test_mem2reg_promotes;
    Alcotest.test_case "mem2reg keeps escaping allocas" `Quick test_mem2reg_skips_escaping;
    Alcotest.test_case "scalarrepl splits structs" `Quick test_sroa;
    Alcotest.test_case "constprop folds chains" `Quick test_constprop_folds;
    Alcotest.test_case "constprop devirtualizes vtable loads" `Quick
      test_constprop_vtable_load;
    Alcotest.test_case "simplifycfg folds constant branches" `Quick
      test_simplifycfg_constant_branch;
    Alcotest.test_case "simplifycfg folds constant switches" `Quick test_simplifycfg_switch;
    Alcotest.test_case "gvn merges redundant expressions" `Quick test_gvn_merges;
    Alcotest.test_case "gvn keeps typed constants apart" `Quick
      test_gvn_keeps_typed_constants_apart;
    Alcotest.test_case "reassociate merges constants" `Quick test_reassociate;
    Alcotest.test_case "inline integrates and deletes" `Quick test_inline_simple;
    Alcotest.test_case "inline through invoke sites" `Quick test_inline_invoke_site;
    Alcotest.test_case "inline stops at recursion" `Quick test_inline_respects_recursion;
    Alcotest.test_case "dge removes dead cycles" `Quick test_dge_removes_dead_cycle;
    Alcotest.test_case "dae removes args and returns" `Quick test_dae;
    Alcotest.test_case "prune-eh converts safe invokes" `Quick test_prune_eh;
    Alcotest.test_case "tailrecelim builds loops" `Quick test_tailrec;
    Alcotest.test_case "adce removes dead code" `Quick test_adce;
    Alcotest.test_case "full pipeline preserves semantics" `Quick
      test_pipeline_preserves_samples;
    Alcotest.test_case "runner: hooks fire once per pass, in order" `Quick
      test_hooks_fire_in_order;
    Alcotest.test_case "runner: a raising before-hook stops the run" `Quick
      test_raising_before_hook_stops_run;
    Alcotest.test_case "pipelines: levels 0..3 only" `Quick test_level_table ]

(* -- store-forward -------------------------------------------------------------- *)

let test_storeforward_basics () =
  let m = mk_module "sf" in
  let b = Builder.for_module m in
  let _main = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let obj = Builder.build_malloc b (Ltype.struct_ [ Ltype.int_; Ltype.int_ ]) in
  let f0 = Builder.build_gep_const b obj [ 0; 0 ] in
  let f1 = Builder.build_gep_const b obj [ 0; 1 ] in
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 30L)) f0);
  (* a store to a provably different field must not kill the first *)
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 12L)) f1);
  let v0 = Builder.build_load b f0 in
  let v1 = Builder.build_load b f1 in
  ignore (Builder.build_ret b (Some (Builder.build_add b v0 v1)));
  let opt = check_pass_preserves Storeforward.pass m in
  Alcotest.(check int) "both loads forwarded" 0 (count_op opt Load)

let test_storeforward_respects_may_alias () =
  (* two pointer arguments may alias: the intervening store kills it *)
  let m = mk_module "sfalias" in
  let b = Builder.for_module m in
  let f =
    Builder.start_function b m ~linkage:External "f" Ltype.int_
      [ ("p", Ltype.pointer Ltype.int_); ("q", Ltype.pointer Ltype.int_) ]
  in
  let p = Varg (List.nth f.fargs 0) in
  let q = Varg (List.nth f.fargs 1) in
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 1L)) p);
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 2L)) q);
  let v = Builder.build_load b p in
  ignore (Builder.build_ret b (Some v));
  ignore (Pass.run_pass Storeforward.pass m);
  Verify.assert_valid m;
  let f = Option.get (find_func m "f") in
  let loads = fold_instrs (fun n i -> if i.iop = Load then n + 1 else n) 0 f in
  Alcotest.(check int) "aliasing load kept" 1 loads;
  (* and the semantics with p == q must be 2, not 1 *)
  let mach = Llvm_exec.Interp.create m in
  let main_like () =
    let mm = mk_module "caller" in
    ignore mm;
    ()
  in
  ignore main_like;
  ignore mach

let test_storeforward_call_barrier () =
  (* a call to an unknown external function invalidates memory state *)
  let m = mk_module "sfcall" in
  let b = Builder.for_module m in
  let ext =
    mk_func ~linkage:External ~name:"mystery" ~return:Ltype.void
      ~params:[ ("p", Ltype.pointer Ltype.int_) ] ()
  in
  add_func m ext;
  let _main = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let p = Builder.build_malloc b Ltype.int_ in
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 5L)) p);
  ignore (Builder.build_call b (Vfunc ext) [ p ]);
  let v = Builder.build_load b p in
  ignore (Builder.build_ret b (Some v));
  ignore (Pass.run_pass Storeforward.pass m);
  let main = Option.get (find_func m "main") in
  let loads = fold_instrs (fun n i -> if i.iop = Load then n + 1 else n) 0 main in
  Alcotest.(check int) "load after unknown call kept" 1 loads

let test_full_devirtualization () =
  (* end to end: every virtual call in a statically-known hierarchy
     resolves to a direct call (paper section 4.1.2) *)
  let src =
    {| class A { public: int x; virtual int f() { return x; } };
       class B : public A { public: virtual int f() { return x * 2; } };
       int main() {
         B* b = new B;
         b->x = 21;
         A* a = (A*)b;
         return a->f();
       } |}
  in
  let m = Llvm_minic.Codegen.compile_string src in
  let before = snapshot (reparse m) in
  Llvm_linker.Link.internalize m;
  Pipelines.optimize_module ~level:3 m;
  Verify.assert_valid m;
  let indirect = ref 0 in
  List.iter
    (fun f ->
      iter_instrs
        (fun i ->
          match i.iop with
          | Call | Invoke -> (
            match call_callee i with
            | Vfunc _ | Vconst (Cfunc _) -> ()
            | _ -> incr indirect)
          | _ -> ())
        f)
    m.mfuncs;
  Alcotest.(check int) "no indirect calls remain" 0 !indirect;
  Alcotest.(check string) "semantics preserved" before (snapshot m)

let more_tests =
  [ Alcotest.test_case "store-forward: field disjointness" `Quick
      test_storeforward_basics;
    Alcotest.test_case "store-forward: may-alias kept" `Quick
      test_storeforward_respects_may_alias;
    Alcotest.test_case "store-forward: call barrier" `Quick
      test_storeforward_call_barrier;
    Alcotest.test_case "whole-program devirtualization" `Quick
      test_full_devirtualization ]

(* -- sccp ------------------------------------------------------------------------ *)

let test_sccp_through_branches () =
  (* x = 5; if (x < 10) y = 1 else y = 2; return y — SCCP proves the
     else-branch dead and y constant, where simple folding cannot *)
  let m = mk_module "sccp" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let t = Builder.append_new_block b f "t" in
  let e = Builder.append_new_block b f "e" in
  let j = Builder.append_new_block b f "j" in
  let x = Builder.build_add b (Vconst (cint Ltype.Int 2L)) (Vconst (cint Ltype.Int 3L)) in
  let c = Builder.build_setlt b x (Vconst (cint Ltype.Int 10L)) in
  ignore (Builder.build_condbr b c t e);
  Builder.position_at_end b t;
  ignore (Builder.build_br b j);
  Builder.position_at_end b e;
  ignore (Builder.build_br b j);
  Builder.position_at_end b j;
  let y =
    Builder.build_phi b Ltype.int_
      [ (Vconst (cint Ltype.Int 1L), t); (Vconst (cint Ltype.Int 2L), e) ]
  in
  ignore (Builder.build_ret b (Some y));
  let opt = check_pass_preserves Sccp.pass m in
  let main = Option.get (find_func opt "main") in
  (* the infeasible else-block is deleted and the phi becomes constant *)
  Alcotest.(check bool) "dead branch removed" true
    (not (List.exists (fun blk -> blk.bname = "e") main.fblocks));
  Alcotest.(check int) "phi resolved" 0 (count_op opt Phi);
  Alcotest.(check string) "constant result" "ret 1|" (snapshot opt)

let test_sccp_loop_invariant_condition () =
  (* a loop whose bound is constant: sccp must not break it *)
  let m = fact_with_main () in
  ignore (Pass.run_pass Mem2reg.pass m);
  ignore (check_pass_preserves Sccp.pass m)

(* -- licm ------------------------------------------------------------------------ *)

let test_licm_hoists () =
  let m = mk_module "licm" in
  let b = Builder.for_module m in
  let f =
    Builder.start_function b m ~linkage:External "main" Ltype.int_ []
  in
  let pre = Builder.insertion_block b in
  let loop = Builder.append_new_block b f "loop" in
  let exit_ = Builder.append_new_block b f "exit" in
  ignore (Builder.build_br b loop);
  Builder.position_at_end b loop;
  let i =
    Builder.build_phi b Ltype.int_ [ (Vconst (cint Ltype.Int 0L), pre) ]
  in
  (* invariant computation inside the loop *)
  let inv =
    Builder.build_mul b (Vconst (cint Ltype.Int 6L)) (Vconst (cint Ltype.Int 7L))
  in
  let i2 = Builder.build_add b i (Vconst (cint Ltype.Int 1L)) in
  (match i with
  | Vinstr phi -> phi_add_incoming phi i2 loop
  | _ -> assert false);
  let c = Builder.build_setlt b i2 (Vconst (cint Ltype.Int 5L)) in
  ignore (Builder.build_condbr b c loop exit_);
  Builder.position_at_end b exit_;
  ignore (Builder.build_ret b (Some (Builder.build_add b i2 inv)));
  let opt = check_pass_preserves Licm.pass m in
  let main = Option.get (find_func opt "main") in
  let entry = entry_block main in
  let mul_in_entry =
    List.exists (fun ins -> ins.iop = Mul) entry.instrs
  in
  Alcotest.(check bool) "multiply hoisted to the preheader" true mul_in_entry

(* -- bounds checking -------------------------------------------------------------- *)

let test_boundscheck_insert_and_trap () =
  let src =
    {| int main(int k) {
         int buf[8];
         for (int i = 0; i < 8; i++) buf[i] = i;
         return buf[k];
       } |}
  in
  let m = Llvm_minic.Codegen.compile_string src in
  let inserted = Boundscheck.insert m in
  Verify.assert_valid m;
  Alcotest.(check bool) "checks inserted" true (inserted > 0);
  let run k =
    let mach = Llvm_exec.Interp.create m in
    let main = Option.get (find_func m "main") in
    (Llvm_exec.Interp.run_function mach main [ Llvm_exec.Interp.Rint (Ltype.Int, k) ])
      .Llvm_exec.Interp.status
  in
  (match run 3L with
  | `Returned (Llvm_exec.Interp.Rint (_, v)) -> Alcotest.(check int64) "in bounds" 3L v
  | _ -> Alcotest.fail "in-bounds access failed");
  match run 99L with
  | `Trapped msg ->
    Alcotest.(check bool) "bounds trap" true
      (Astring_contains.contains msg "out of bounds")
  | _ -> Alcotest.fail "expected a bounds trap"

let test_boundscheck_elimination () =
  (* masked indices and repeated checks are provably safe *)
  let src =
    {| int main(int k) {
         int buf[16];
         for (int i = 0; i < 16; i++) buf[i] = i;
         int a = buf[k & 15];       // masked below the bound
         int b = buf[k & 15];       // dominated duplicate
         return a + b;
       } |}
  in
  let m = Llvm_minic.Codegen.compile_string src in
  ignore (Pass.run_pass Mem2reg.pass m);
  ignore (Pass.run_pass Gvn.pass m);
  let inserted = Boundscheck.insert m in
  Alcotest.(check bool) "checks inserted" true (inserted >= 2);
  let eliminated = Boundscheck.eliminate m in
  Verify.assert_valid m;
  Alcotest.(check bool)
    (Printf.sprintf "all %d checks eliminated (%d removed)" inserted eliminated)
    true (eliminated = inserted)

(* -- range-driven propagation ------------------------------------------------------ *)

let test_rangeprop_interprocedural () =
  (* SCCP sees classify's argument as overdefined (two different call
     sites); the range analysis joins them to [3,7] and folds x < 10 *)
  let src =
    {| static int classify(int x) {
         if (x < 10) return 1;
         return 0;
       }
       int main() { return classify(3) + classify(7); } |}
  in
  let m = Llvm_minic.Codegen.compile_string src in
  ignore (Pass.run_pass Mem2reg.pass m);
  Alcotest.(check bool) "comparison present before" true (count_op m SetLT > 0);
  let opt = check_pass_preserves Rangeprop.pass m in
  Alcotest.(check int) "comparison folded away" 0 (count_op opt SetLT)

let test_rangeprop_div_trap_preserved () =
  let m = mk_module "rpdiv" in
  let b = Builder.for_module m in
  let f =
    Builder.start_function b m ~linkage:External "main" Ltype.int_
      [ ("c", Ltype.bool_) ]
  in
  let c = Varg (List.hd f.fargs) in
  (* divisor select c 2 2 has range [2,2]: provably nonzero, folds to 5 *)
  let safe =
    Builder.build_div b
      (Vconst (cint Ltype.Int 10L))
      (Builder.build_select b c
         (Vconst (cint Ltype.Int 2L))
         (Vconst (cint Ltype.Int 2L)))
  in
  (* divisor cast(c) has range [0,1]: the result range is the singleton
     [10] because ranges only describe completing executions, but
     folding it would erase the c = false trap *)
  let trap =
    Builder.build_div b
      (Vconst (cint Ltype.Int 10L))
      (Builder.build_cast b c Ltype.int_)
  in
  ignore (Builder.build_ret b (Some (Builder.build_add b safe trap)));
  ignore (Pass.run_pass Rangeprop.pass m);
  Verify.assert_valid m;
  Alcotest.(check int) "maybe-trapping division kept" 1 (count_op m Div)

let test_boundscheck_range_elimination () =
  (* neither index is a constant or a masked value, so only the value
     ranges ([3,5] for the phi, [0,9] for the induction variable) prove
     these accesses safe *)
  let src =
    {| int main(int k) {
         int buf[10];
         for (int i = 0; i < 10; i++) buf[i] = i;
         int idx = 3;
         if (k > 0) idx = 5;
         return buf[idx];
       } |}
  in
  let m = Llvm_minic.Codegen.compile_string src in
  ignore (Pass.run_pass Mem2reg.pass m);
  let inserted = Boundscheck.insert m in
  Alcotest.(check bool) "checks inserted" true (inserted > 0);
  let eliminated = Boundscheck.eliminate m in
  Verify.assert_valid m;
  Alcotest.(check int)
    (Printf.sprintf "all %d checks eliminated via ranges" inserted)
    inserted eliminated

let even_more_tests =
  [ Alcotest.test_case "sccp resolves branch-dependent constants" `Quick
      test_sccp_through_branches;
    Alcotest.test_case "sccp preserves loops" `Quick test_sccp_loop_invariant_condition;
    Alcotest.test_case "licm hoists invariants" `Quick test_licm_hoists;
    Alcotest.test_case "bounds checks insert and trap" `Quick
      test_boundscheck_insert_and_trap;
    Alcotest.test_case "bounds checks eliminate" `Quick test_boundscheck_elimination;
    Alcotest.test_case "rangeprop folds interprocedural facts" `Quick
      test_rangeprop_interprocedural;
    Alcotest.test_case "rangeprop keeps maybe-trapping division" `Quick
      test_rangeprop_div_trap_preserved;
    Alcotest.test_case "range facts eliminate variable-index checks" `Quick
      test_boundscheck_range_elimination ]

(* -- interprocedural constant propagation ------------------------------------------ *)

let test_ipconstprop () =
  let src =
    {| static int scaled(int x, int factor) { return x * factor; }
       int main() {
         // every site passes factor = 10
         return scaled(1, 10) + scaled(2, 10) + scaled(3, 10);
       } |}
  in
  let m = Llvm_minic.Codegen.compile_string src in
  ignore (Pass.run_pass Mem2reg.pass m);
  let before = snapshot (reparse m) in
  let s = Ipconstprop.run m in
  Verify.assert_valid m;
  Alcotest.(check int) "factor propagated" 1 s.Ipconstprop.propagated_args;
  (* the formal is now dead; DAE removes it *)
  let d = Dae.run m in
  Alcotest.(check int) "argument then removed" 1 d.Dae.removed_args;
  Verify.assert_valid m;
  Alcotest.(check string) "semantics preserved" before (snapshot m)

let test_ipconstprop_const_return () =
  let src =
    {| static int version() { return 7; }
       int main() { return version() + version(); } |}
  in
  let m = Llvm_minic.Codegen.compile_string src in
  ignore (Pass.run_pass Mem2reg.pass m);
  let s = Ipconstprop.run m in
  Alcotest.(check int) "return propagated" 1 s.Ipconstprop.propagated_returns;
  Verify.assert_valid m;
  Alcotest.(check string) "result" "ret 14|" (snapshot m)

(* -- dead type elimination ----------------------------------------------------------- *)

let test_deadtypes () =
  let m = mk_module "dt" in
  define_type m "used" (Ltype.struct_ [ Ltype.int_ ]);
  define_type m "dead" (Ltype.struct_ [ Ltype.double ]);
  define_type m "dead_chain" (Ltype.struct_ [ Ltype.pointer (Ltype.Named "dead") ]);
  let b = Builder.for_module m in
  let _main = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let p = Builder.build_malloc b (Ltype.Named "used") in
  let slot = Builder.build_gep_const b p [ 0; 0 ] in
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 9L)) slot);
  let v = Builder.build_load b slot in
  ignore (Builder.build_ret b (Some v));
  let removed = Deadtypes.run m in
  Alcotest.(check int) "two dead names removed" 2 removed;
  Alcotest.(check bool) "used survives" true (Hashtbl.mem m.mtypes "used");
  Verify.assert_valid m;
  Alcotest.(check string) "still runs" "ret 9|" (snapshot m)

let final_tests =
  [ Alcotest.test_case "ipconstprop: common arguments" `Quick test_ipconstprop;
    Alcotest.test_case "ipconstprop: constant returns" `Quick
      test_ipconstprop_const_return;
    Alcotest.test_case "dead type elimination" `Quick test_deadtypes ]

(* -- automatic pool allocation ------------------------------------------------------ *)

let test_poolalloc_local_structure () =
  (* a list built and traversed locally: its node cannot escape, so the
     allocations segregate into a pool that is bulk-destroyed on return *)
  let src =
    {| struct Node { int v; struct Node* next; };
       static int sum_local(int n) {
         struct Node* head = null;
         for (int i = 0; i < n; i++) {
           struct Node* x = new struct Node;
           x->v = i; x->next = head; head = x;
         }
         int s = 0;
         while (head != null) { s += head->v; head = head->next; }
         return s;
       }
       int main() { return sum_local(10) + sum_local(5); } |}
  in
  let m = Llvm_minic.Codegen.compile_string src in
  ignore (Pass.run_pass Mem2reg.pass m);
  let before = snapshot (reparse m) in
  let s = Poolalloc.run m in
  Verify.assert_valid m;
  Alcotest.(check int) "one pool for the list" 1 s.Poolalloc.pools_created;
  Alcotest.(check int) "the malloc site pooled" 1 s.Poolalloc.mallocs_pooled;
  Alcotest.(check string) "semantics preserved" before (snapshot m);
  (* the rewritten function calls the pool runtime *)
  let f = Option.get (find_func m "sum_local") in
  let calls name =
    fold_instrs
      (fun n i ->
        match i.iop with
        | Call -> (
          match call_callee i with
          | Vfunc g when g.fname = name -> n + 1
          | _ -> n)
        | _ -> n)
      0 f
  in
  Alcotest.(check int) "poolinit once" 1 (calls "llvm_poolinit");
  Alcotest.(check int) "pooldestroy on the return" 1 (calls "llvm_pooldestroy");
  Alcotest.(check bool) "poolalloc used" true (calls "llvm_poolalloc" >= 1)

let test_poolalloc_skips_escaping () =
  (* the allocation is returned: it must stay an ordinary malloc *)
  let src =
    {| struct Node { int v; struct Node* next; };
       static struct Node* make(int v) {
         struct Node* x = new struct Node;
         x->v = v;
         return x;
       }
       int main() {
         struct Node* a = make(4);
         int r = a->v;
         delete a;
         return r;
       } |}
  in
  let m = Llvm_minic.Codegen.compile_string src in
  ignore (Pass.run_pass Mem2reg.pass m);
  let before = snapshot (reparse m) in
  let s = Poolalloc.run m in
  Verify.assert_valid m;
  Alcotest.(check int) "no pool for escaping data" 0 s.Poolalloc.pools_created;
  Alcotest.(check string) "semantics preserved" before (snapshot m)

let test_poolalloc_explicit_free () =
  (* frees of pooled pointers become poolfree; double-destroy must not trap *)
  let src =
    {| struct Buf { int data; };
       static int churn(int n) {
         int acc = 0;
         for (int i = 0; i < n; i++) {
           struct Buf* b = new struct Buf;
           b->data = i;
           acc += b->data;
           delete b;
         }
         return acc;
       }
       int main() { return churn(20); } |}
  in
  let m = Llvm_minic.Codegen.compile_string src in
  ignore (Pass.run_pass Mem2reg.pass m);
  let before = snapshot (reparse m) in
  let s = Poolalloc.run m in
  Verify.assert_valid m;
  Alcotest.(check bool) "pooled" true (s.Poolalloc.pools_created >= 1);
  Alcotest.(check bool) "frees rewritten" true (s.Poolalloc.frees_pooled >= 1);
  Alcotest.(check string) "semantics preserved" before (snapshot m)

let pool_tests =
  [ Alcotest.test_case "poolalloc: local structures pooled" `Quick
      test_poolalloc_local_structure;
    Alcotest.test_case "poolalloc: escaping data untouched" `Quick
      test_poolalloc_skips_escaping;
    Alcotest.test_case "poolalloc: explicit frees" `Quick
      test_poolalloc_explicit_free ]

let tests = tests @ more_tests @ even_more_tests @ final_tests @ pool_tests
