(* Execution-engine tests: direct interpretation of sample modules,
   memory safety traps, exception semantics, and profiling. *)

open Llvm_ir
open Ir
open Llvm_exec

let check_int = Alcotest.(check int)

let ret_int (r : Interp.run_result) : int64 =
  match r.status with
  | `Returned (Interp.Rint (_, v)) -> v
  | `Returned v -> Alcotest.failf "non-integer result %a" Interp.pp_rtval v
  | `Trapped msg -> Alcotest.failf "trapped: %s" msg
  | `Unwound -> Alcotest.fail "unexpected unwind"
  | `Exited c -> Alcotest.failf "unexpected exit %d" c

let test_fact () =
  let m = Samples.fact_module () in
  let mach = Interp.create m in
  let f = Option.get (find_func m "fact") in
  let r = Interp.run_function mach f [ Interp.Rint (Ltype.Int, 5L) ] in
  Alcotest.(check int64) "5! = 120" 120L (ret_int r);
  let r = Interp.run_function mach f [ Interp.Rint (Ltype.Int, 0L) ] in
  Alcotest.(check int64) "0! = 1" 1L (ret_int r)

let test_add1 () =
  let m = Samples.add1_module () in
  let mach = Interp.create m in
  let f = Option.get (find_func m "add1") in
  let r = Interp.run_function mach f [ Interp.Rint (Ltype.Int, 41L) ] in
  Alcotest.(check int64) "41+1" 42L (ret_int r)

(* Build a main that creates a 3-node linked list and calls sum_list. *)
let sum_list_main () =
  let m = Samples.kitchen_sink_module () in
  let b = Builder.for_module m in
  let node_ptr = Ltype.pointer (Ltype.Named "node") in
  let main = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  ignore main;
  let mk_node value next =
    let n = Builder.build_malloc b (Ltype.Named "node") in
    let vslot = Builder.build_gep_const b n [ 0; 0 ] in
    ignore (Builder.build_store b (Vconst (cint Ltype.Int value)) vslot);
    let nslot = Builder.build_gep_const b n [ 0; 1 ] in
    ignore (Builder.build_store b next nslot);
    n
  in
  let n3 = mk_node 30L (Vconst (Cnull node_ptr)) in
  let n2 = mk_node 20L n3 in
  let n1 = mk_node 10L n2 in
  let f = Option.get (find_func m "sum_list") in
  let r =
    Builder.build_call b (Vfunc f) [ n1; Vconst (cint Ltype.Int 0L) ]
  in
  ignore (Builder.build_ret b (Some r));
  m

let test_linked_list () =
  let m = sum_list_main () in
  Verify.assert_valid m;
  let r = Interp.run_main m in
  Alcotest.(check int64) "sum of [10;20;30]" 60L (ret_int r)

let test_exceptions () =
  let m = Samples.exceptions_module () in
  let mach = Interp.create m in
  let caller = Option.get (find_func m "caller") in
  let r = Interp.run_function mach caller [ Interp.Rbool true ] in
  Alcotest.(check int64) "throwing path lands in cleanup" 1L (ret_int r);
  let r = Interp.run_function mach caller [ Interp.Rbool false ] in
  Alcotest.(check int64) "normal path" 0L (ret_int r)

let expect_trap m substring =
  let r = Interp.run_main m in
  match r.Interp.status with
  | `Trapped msg ->
    if
      not
        (String.length msg >= String.length substring
        && Astring_contains.contains msg substring)
    then Alcotest.failf "wrong trap: %s" msg
  | _ -> Alcotest.fail "expected a trap"

let test_null_deref () =
  let m = mk_module "nullderef" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let v =
    Builder.build_load b (Vconst (Cnull (Ltype.pointer Ltype.int_)))
  in
  ignore (Builder.build_ret b (Some v));
  expect_trap m "null"

let test_use_after_free () =
  let m = mk_module "uaf" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let p = Builder.build_malloc b Ltype.int_ in
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 1L)) p);
  ignore (Builder.build_free b p);
  let v = Builder.build_load b p in
  ignore (Builder.build_ret b (Some v));
  expect_trap m "use after free"

let test_out_of_bounds () =
  let m = mk_module "oob" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let p = Builder.build_alloca b (Ltype.array 2 Ltype.int_) in
  let slot = Builder.build_gep_const b p [ 0; 5 ] in
  let v = Builder.build_load b slot in
  ignore (Builder.build_ret b (Some v));
  expect_trap m "out-of-bounds"

let test_div_by_zero () =
  let m = mk_module "div0" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  ignore f;
  (* hide the zero behind an alloca so constprop-free IR still traps *)
  let slot = Builder.build_alloca b Ltype.int_ in
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 0L)) slot);
  let z = Builder.build_load b slot in
  let v = Builder.build_div b (Vconst (cint Ltype.Int 7L)) z in
  ignore (Builder.build_ret b (Some v));
  expect_trap m "division by zero"

let test_infinite_loop_fuel () =
  let m = mk_module "inf" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let loop = Builder.append_new_block b f "loop" in
  ignore (Builder.build_br b loop);
  Builder.position_at_end b loop;
  ignore (Builder.build_br b loop);
  let r = Interp.run_main ~fuel:10_000 m in
  (match r.Interp.status with
  | `Trapped msg -> Alcotest.(check bool) "fuel trap" true
      (Astring_contains.contains msg "fuel")
  | _ -> Alcotest.fail "expected fuel exhaustion")

let test_indirect_call () =
  let m = mk_module "indirect" in
  let b = Builder.for_module m in
  let callee =
    Builder.start_function b m ~linkage:Internal "target" Ltype.int_
      [ ("x", Ltype.int_) ]
  in
  let x = Varg (List.hd callee.fargs) in
  ignore (Builder.build_ret b (Some (Builder.build_add b x x)));
  let _main = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let fn_ptr_ty = Ltype.pointer (Ltype.func Ltype.int_ [ Ltype.int_ ]) in
  let slot = Builder.build_alloca b fn_ptr_ty in
  ignore (Builder.build_store b (Vfunc callee) slot);
  let fp = Builder.build_load b slot in
  let r = Builder.build_call b fp [ Vconst (cint Ltype.Int 21L) ] in
  ignore (Builder.build_ret b (Some r));
  Verify.assert_valid m;
  let r = Interp.run_main m in
  Alcotest.(check int64) "indirect call through memory" 42L (ret_int r)

let test_profile_counts () =
  let m = Samples.fact_module () in
  let b = Builder.for_module m in
  let main = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let f = Option.get (find_func m "fact") in
  let r = Builder.build_call b (Vfunc f) [ Vconst (cint Ltype.Int 10L) ] in
  ignore (Builder.build_ret b (Some r));
  let e = Llvm_exec.Engine.create ~profiling:true Llvm_exec.Engine.Interp_tier m in
  ignore (ret_int (Interp.run_function e.Llvm_exec.Engine.mach main []));
  let profile = Llvm_exec.Engine.profile e in
  let body = List.nth f.fblocks 2 in
  check_int "loop body runs 10 times" 10
    (Llvm_profile.Profile.block_weight profile ~func:"fact" ~block:body.bname);
  check_int "fact entered once" 1 (Llvm_profile.Profile.func_weight profile f)

let test_global_state () =
  (* A global counter incremented in a loop; checks global init + load/store. *)
  let m = mk_module "gstate" in
  let b = Builder.for_module m in
  let g =
    mk_gvar ~linkage:Internal ~name:"acc" ~ty:Ltype.int_
      ~init:(cint Ltype.Int 5L) ()
  in
  add_gvar m g;
  let f = Builder.start_function b m ~linkage:External "main" Ltype.int_ [] in
  let loop = Builder.append_new_block b f "loop" in
  let done_ = Builder.append_new_block b f "done" in
  let entry = Builder.insertion_block b in
  ignore (Builder.build_br b loop);
  Builder.position_at_end b loop;
  let i =
    Builder.build_phi b ~name:"i" Ltype.int_ [ (Vconst (cint Ltype.Int 0L), entry) ]
  in
  let cur = Builder.build_load b (Vglobal g) in
  ignore (Builder.build_store b (Builder.build_add b cur i) (Vglobal g));
  let i' = Builder.build_add b i (Vconst (cint Ltype.Int 1L)) in
  (match i with
  | Vinstr phi -> phi_add_incoming phi i' loop
  | _ -> assert false);
  let c = Builder.build_setlt b i' (Vconst (cint Ltype.Int 5L)) in
  ignore (Builder.build_condbr b c loop done_);
  Builder.position_at_end b done_;
  let final = Builder.build_load b (Vglobal g) in
  ignore (Builder.build_ret b (Some final));
  Verify.assert_valid m;
  (* 5 + (0+1+2+3+4) = 15 *)
  Alcotest.(check int64) "global accumulation" 15L (ret_int (Interp.run_main m))

let tests =
  [ Alcotest.test_case "factorial" `Quick test_fact;
    Alcotest.test_case "add1" `Quick test_add1;
    Alcotest.test_case "heap linked list via gep" `Quick test_linked_list;
    Alcotest.test_case "invoke/unwind semantics" `Quick test_exceptions;
    Alcotest.test_case "null dereference traps" `Quick test_null_deref;
    Alcotest.test_case "use after free traps" `Quick test_use_after_free;
    Alcotest.test_case "out of bounds traps" `Quick test_out_of_bounds;
    Alcotest.test_case "division by zero traps" `Quick test_div_by_zero;
    Alcotest.test_case "infinite loops exhaust fuel" `Quick test_infinite_loop_fuel;
    Alcotest.test_case "indirect calls" `Quick test_indirect_call;
    Alcotest.test_case "block profiling" `Quick test_profile_counts;
    Alcotest.test_case "global variable state" `Quick test_global_state ]
