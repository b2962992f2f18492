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

let test_boundscheck_dominated_duplicate () =
  (* the loop stores are range-proven; a[k] needs its check, which then
     covers b[k]: the same index against the same bound, dominating it *)
  let src =
    {| int main(int k) {
         int a[16];
         int b[16];
         for (int i = 0; i < 16; i++) { a[i] = i; b[i] = i; }
         return a[k] + b[k];
       } |}
  in
  let m = Llvm_minic.Codegen.compile_string src in
  ignore (Pass.run_pass Mem2reg.pass m);
  ignore (Pass.run_pass Gvn.pass m);
  Alcotest.(check int) "checks inserted" 4 (Boundscheck.insert m);
  Alcotest.(check int) "checks eliminated" 3 (Boundscheck.eliminate m);
  Verify.assert_valid m;
  let run k =
    (Interp.run_function (Interp.create m)
       (Option.get (find_func m "main"))
       [ Interp.Rint (Ltype.Int, k) ])
      .Interp.status
  in
  (match run 5L with
  | `Returned (Interp.Rint (_, v)) -> Alcotest.(check int64) "in bounds" 10L v
  | _ -> Alcotest.fail "in-bounds access failed");
  match run 16L with
  | `Trapped msg ->
    Alcotest.(check bool) "the kept check traps" true
      (Astring_contains.contains msg "out of bounds")
  | _ -> Alcotest.fail "expected a bounds trap"

(* Golden table of the eliminator over the quick workloads: for each
   profile at -O0, after mem2reg+gvn and at -O2, the checks inserted and
   eliminated and the MD5 of the printed module after elimination.  -O0
   leaves checks standing, so an eliminator that proves too much and
   one that proves too little both change the table. *)
let boundscheck_golden =
  [ ("164.gzip -O0", 2, 0, "a41b010e1f840a9e42a3d0add220f893");
    ("164.gzip mem2reg+gvn", 2, 2, "71ed0315448ccd5773de9a032631fe4b");
    ("164.gzip -O2", 2, 2, "8610818f6917382e5462a857f6d4079a");
    ("175.vpr -O0", 10, 0, "7ab18d2c00c39638e92112b8a7e1db84");
    ("175.vpr mem2reg+gvn", 10, 10, "7792222adc907fb192c56efed4cca373");
    ("175.vpr -O2", 10, 10, "0ac3585943df8361e745aa2b72b612be");
    ("176.gcc -O0", 10, 1, "dd3a382d86bf58cf538a632cd4b40be1");
    ("176.gcc mem2reg+gvn", 9, 9, "0f748fa61afa57dc3f36795e7b09ac85");
    ("176.gcc -O2", 8, 8, "04059f4fa8a390f7d72c7d1a57e0df64");
    ("177.mesa -O0", 6, 0, "348a91d528e9019c5c032ba477ca42a9");
    ("177.mesa mem2reg+gvn", 6, 6, "20a054905667bfef107c342640dded16");
    ("177.mesa -O2", 6, 6, "da5b4f7a4aa3888f807cde3b4f724f16");
    ("179.art -O0", 4, 0, "d4654c5aefea832913da37809abf21b9");
    ("179.art mem2reg+gvn", 4, 4, "e0755da6da234f9c6c91c704ca8ff3c0");
    ("179.art -O2", 4, 4, "2e1e25e83e8f3ddce0e4568e5810cf0f");
    ("181.mcf -O0", 5, 0, "ca7022b282f40dbff29a116f764adcc1");
    ("181.mcf mem2reg+gvn", 5, 5, "dad300edf566690c25c144c6964db392");
    ("181.mcf -O2", 5, 5, "18f0c4aebedbb97b4b91901df53bf560");
    ("183.equake -O0", 3, 0, "c84c0c620f7618b8b4150810599f824c");
    ("183.equake mem2reg+gvn", 2, 2, "12820ad40dc6a9c63e945b98ca15b441");
    ("183.equake -O2", 2, 2, "64bcd253ae6abfc2957bba435f7f46e8");
    ("186.crafty -O0", 10, 0, "aa6b11db1b21a458b778c573c11a88ed");
    ("186.crafty mem2reg+gvn", 10, 10, "3ff55ecd9ac9a1b4f530308c6f29e752");
    ("186.crafty -O2", 10, 10, "4bc16dd081c38048ae32250e924671e3");
    ("188.ammp -O0", 7, 0, "da088dbb9f6653e81423fe1332fed2de");
    ("188.ammp mem2reg+gvn", 6, 6, "118330fe2c27f91fd26a6c350e8d8234");
    ("188.ammp -O2", 6, 6, "44c25a23fbfc79017ef45354ca285578");
    ("197.parser -O0", 11, 1, "a1ebab8e72173f0b2afc8cfc0aa431bc");
    ("197.parser mem2reg+gvn", 10, 10, "32e413e9c6374cafbfd869b7a55cba86");
    ("197.parser -O2", 9, 9, "0fa5522035f95e1b34d7def8cc221127");
    ("253.perlbmk -O0", 16, 1, "be2ff9c55062aa7338d3945de5f6816e");
    ("253.perlbmk mem2reg+gvn", 16, 16, "63af475aa9fd14e46be3c0f79e271c4e");
    ("253.perlbmk -O2", 15, 15, "23350367ee960dfcc8074e6100782bcd");
    ("254.gap -O0", 11, 1, "36984972fac83048bd141eb101b32db0");
    ("254.gap mem2reg+gvn", 9, 9, "5dbcc5cb58d15a97e1935c3200f8dc32");
    ("254.gap -O2", 8, 8, "cccab1bd70976d66c383a7982bae4fe6");
    ("255.vortex -O0", 8, 1, "fa3674eb34177aca64912ae19eb52f4f");
    ("255.vortex mem2reg+gvn", 8, 8, "c3d006510de74cb3a0682f1aa1b4511b");
    ("255.vortex -O2", 7, 7, "b1209d15a0c105d8c1809429cd305b3c");
    ("256.bzip2 -O0", 4, 0, "d30569e15ce58e5d5ec245854eaad262");
    ("256.bzip2 mem2reg+gvn", 4, 4, "62200ee9258365dc9bc46c5a7b7090de");
    ("256.bzip2 -O2", 4, 4, "a7cdf0c7f3623ba965b0dd9ae658b381");
    ("300.twolf -O0", 8, 0, "644f929ebf729a0858724f77c704d33c");
    ("300.twolf mem2reg+gvn", 7, 7, "441d2d7c97401ea91dc3ec66fd88e9e3");
    ("300.twolf -O2", 7, 7, "b78cfe6ad4f7834e9a979a8a7f1815bc");
    ("olden.treeadd -O0", 7, 0, "3fcd0f056d8514afbe2a5fdeeab9de04");
    ("olden.treeadd mem2reg+gvn", 6, 6, "68d9310bbf7895fa28bffba4dbcf91b7");
    ("olden.treeadd -O2", 6, 6, "c1861ff5e6657e425b3d8026a82c1e9e");
    ("olden.mst -O0", 3, 0, "2a2d739d0d3600a6838fee530326a1f7");
    ("olden.mst mem2reg+gvn", 2, 2, "2f55a6a34766c7b1c20ca91e379def59");
    ("olden.mst -O2", 2, 2, "8f59b350bded029ec2123329af29e572");
    ("ptrdist.ks -O0", 4, 0, "5b43dbeb9334f2eaa1c50e8d574c1796");
    ("ptrdist.ks mem2reg+gvn", 4, 4, "012f1b25ddee5b81ca734a337ef3a4bb");
    ("ptrdist.ks -O2", 4, 4, "bdf4575e096646cad3865dc7a7ade314");
    ("ptrdist.ft -O0", 11, 0, "28dcc38493bd668326c88a763d0dac0f");
    ("ptrdist.ft mem2reg+gvn", 11, 11, "e5c1a81ae998f9fcbfeb8114cd306faf");
    ("ptrdist.ft -O2", 11, 11, "601d75ceb1afd808c65c381585a30944") ]

let test_boundscheck_golden () =
  let md5 s = Stdlib.Digest.to_hex (Stdlib.Digest.string s) in
  let preparations =
    [ ("-O0", Pipelines.optimize_module ~level:0);
      ( "mem2reg+gvn",
        fun m ->
          ignore (Pass.run_pass Mem2reg.pass m);
          ignore (Pass.run_pass Gvn.pass m) );
      ("-O2", Pipelines.optimize_module ~level:2) ]
  in
  let got =
    List.concat_map
      (fun p ->
        let p = Llvm_workloads.Spec.quick p in
        List.map
          (fun (how, prepare) ->
            let m = Llvm_workloads.Genprog.compile p in
            prepare m;
            let inserted = Boundscheck.insert m in
            let eliminated = Boundscheck.eliminate m in
            ( Printf.sprintf "%s %s" p.Llvm_workloads.Genprog.p_name how,
              inserted, eliminated, md5 (Printer.module_to_string m) ))
          preparations)
      Llvm_workloads.Spec.(spec2000 @ disciplined)
  in
  if got <> boundscheck_golden then
    Alcotest.failf "bounds-check elimination changed; it now gives:\n%s"
      (String.concat "\n"
         (List.map
            (fun (l, i, e, d) -> Printf.sprintf "    (%S, %d, %d, %S);" l i e d)
            got))

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
      test_boundscheck_range_elimination;
    Alcotest.test_case "a dominating check covers its duplicate" `Quick
      test_boundscheck_dominated_duplicate;
    Alcotest.test_case "bounds-check elimination golden table" `Quick
      test_boundscheck_golden ]

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
