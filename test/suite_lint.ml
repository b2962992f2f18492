(* Tests for the dataflow engine and the llvm-lint checker suite: one
   deliberately-buggy module per checker plus a clean module that every
   checker must stay silent on. *)

open Llvm_ir
open Ir
open Llvm_analysis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let codes ds = List.map (fun d -> d.Lint.code) ds
let has_code c ds = List.mem c (codes ds)

let contains ~affix s =
  let n = String.length affix and len = String.length s in
  let rec go i = i + n <= len && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* Every buggy sample must still be structurally valid IR: lint findings
   are semantic, not verifier errors. *)
let lint m =
  (match Verify.verify_module m with
  | [] -> ()
  | errs ->
    Alcotest.failf "sample %s does not verify: %s" m.mname
      (Fmt.str "%a" Fmt.(list Verify.pp_error) errs));
  Lint.run m

(* -- one buggy module per checker -------------------------------------- *)

let uninit_module () =
  let m = mk_module "uninit" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m "f" Ltype.int_ [] in
  let p = Builder.build_alloca b ~name:"p" Ltype.int_ in
  let x = Builder.build_load b ~name:"x" p in
  ignore (Builder.build_ret b (Some x));
  m

let maybe_uninit_module () =
  let m = mk_module "maybe_uninit" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m "f" Ltype.int_ [ ("c", Ltype.bool_) ] in
  let c = Varg (List.hd f.fargs) in
  let p = Builder.build_alloca b ~name:"p" Ltype.int_ in
  let then_ = Builder.append_new_block b f "then" in
  let join = Builder.append_new_block b f "join" in
  ignore (Builder.build_condbr b c then_ join);
  Builder.position_at_end b then_;
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 1L)) p);
  ignore (Builder.build_br b join);
  Builder.position_at_end b join;
  let x = Builder.build_load b ~name:"x" p in
  ignore (Builder.build_ret b (Some x));
  m

let null_deref_module () =
  let m = mk_module "nullderef" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m "f" Ltype.void [] in
  let null = Vconst (Cnull (Ltype.pointer Ltype.int_)) in
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 1L)) null);
  ignore (Builder.build_ret b None);
  m

let double_free_module () =
  let m = mk_module "doublefree" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m "f" Ltype.void [] in
  let p = Builder.build_malloc b ~name:"p" Ltype.int_ in
  ignore (Builder.build_free b p);
  ignore (Builder.build_free b p);
  ignore (Builder.build_ret b None);
  m

let use_after_free_module () =
  let m = mk_module "uaf" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m "f" Ltype.int_ [] in
  let p = Builder.build_malloc b ~name:"p" Ltype.int_ in
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 1L)) p);
  ignore (Builder.build_free b p);
  let x = Builder.build_load b ~name:"x" p in
  ignore (Builder.build_ret b (Some x));
  m

let leak_module () =
  let m = mk_module "leak" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m "f" Ltype.void [] in
  let p = Builder.build_malloc b ~name:"p" Ltype.int_ in
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 1L)) p);
  ignore (Builder.build_ret b None);
  m

let dead_store_module () =
  let m = mk_module "deadstore" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m "f" Ltype.int_ [] in
  let p = Builder.build_alloca b ~name:"p" Ltype.int_ in
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 1L)) p);
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 2L)) p);
  let x = Builder.build_load b ~name:"x" p in
  ignore (Builder.build_ret b (Some x));
  m

let unreachable_module () =
  let m = mk_module "unreach" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m "f" Ltype.void [] in
  ignore (Builder.build_ret b None);
  let dead = Builder.append_new_block b f "dead" in
  Builder.position_at_end b dead;
  ignore (Builder.build_ret b None);
  m

(* A dead block between the entry and the exit stores twice to a slot:
   L007 flags the block, and L006 stays quiet, as no path runs it. *)
let dead_code_store_module () =
  let m = mk_module "deadcode" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m "f" Ltype.void [] in
  let a = Builder.build_alloca b ~name:"a" Ltype.int_ in
  let dead = Builder.append_new_block b f "dead" in
  let exit_ = Builder.append_new_block b f "exit" in
  ignore (Builder.build_br b exit_);
  Builder.position_at_end b dead;
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 1L)) a);
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 2L)) a);
  ignore (Builder.build_br b exit_);
  Builder.position_at_end b exit_;
  ignore (Builder.build_ret b None);
  m

(* Uses every construct the checkers watch, correctly. *)
let clean_module () =
  let m = mk_module "clean" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m "f" Ltype.int_ [] in
  let p = Builder.build_alloca b ~name:"p" Ltype.int_ in
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 1L)) p);
  let x = Builder.build_load b ~name:"x" p in
  let q = Builder.build_malloc b ~name:"q" Ltype.int_ in
  ignore (Builder.build_store b x q);
  let y = Builder.build_load b ~name:"y" q in
  ignore (Builder.build_free b q);
  ignore (Builder.build_ret b (Some y));
  m

(* Definite signed overflow: both operands sit in [300,301] (a select of
   two short constants), so the product [90000,90601] lies entirely
   outside short's [-32768,32767]. *)
let overflow_module () =
  let m = mk_module "overflow" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m "f" Ltype.short [ ("c", Ltype.bool_) ] in
  let c = Varg (List.hd f.fargs) in
  let x =
    Builder.build_select b ~name:"x" c
      (Vconst (cint Ltype.Short 300L))
      (Vconst (cint Ltype.Short 301L))
  in
  let y = Builder.build_mul b ~name:"y" x x in
  ignore (Builder.build_ret b (Some y));
  m

(* Division by a provably-zero value, and a shift amount provably
   outside int's bit width. *)
let div_zero_module () =
  let m = mk_module "divzero" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m "f" Ltype.int_ [ ("x", Ltype.int_) ] in
  let x = Varg (List.hd f.fargs) in
  let d = Builder.build_div b ~name:"d" x (Vconst (cint Ltype.Int 0L)) in
  let s = Builder.build_shl b ~name:"s" x (Vconst (cint Ltype.Int 40L)) in
  let r = Builder.build_add b ~name:"r" d s in
  ignore (Builder.build_ret b (Some r));
  m

(* A gep array index whose range [11,12] cannot meet [0,9]. *)
let oob_gep_module () =
  let m = mk_module "oobgep" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m "f" Ltype.void [ ("c", Ltype.bool_) ] in
  let c = Varg (List.hd f.fargs) in
  let a = Builder.build_alloca b ~name:"a" (Ltype.array 10 Ltype.int_) in
  let idx =
    Builder.build_select b ~name:"idx" c
      (Vconst (cint Ltype.Int 11L))
      (Vconst (cint Ltype.Int 12L))
  in
  let g = Builder.build_gep b ~name:"g" a [ Vconst (cint Ltype.Long 0L); idx ] in
  ignore (Builder.build_store b (Vconst (cint Ltype.Int 1L)) g);
  ignore (Builder.build_ret b None);
  m

(* The same three shapes with in-range values: every range checker must
   stay quiet. *)
let clean_ranges_module () =
  let m = mk_module "cleanranges" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m "f" Ltype.short [ ("c", Ltype.bool_) ] in
  let c = Varg (List.hd f.fargs) in
  let x =
    Builder.build_select b ~name:"x" c
      (Vconst (cint Ltype.Short 10L))
      (Vconst (cint Ltype.Short 20L))
  in
  let y = Builder.build_mul b ~name:"y" x x in
  let a = Builder.build_alloca b ~name:"a" (Ltype.array 10 Ltype.short) in
  let idx =
    Builder.build_select b ~name:"idx" c
      (Vconst (cint Ltype.Int 3L))
      (Vconst (cint Ltype.Int 5L))
  in
  let g = Builder.build_gep b ~name:"g" a [ Vconst (cint Ltype.Long 0L); idx ] in
  ignore (Builder.build_store b y g);
  let v = Builder.build_load b ~name:"v" g in
  let d =
    Builder.build_div b ~name:"d" v
      (Builder.build_select b ~name:"dv" c
         (Vconst (cint Ltype.Short 2L))
         (Vconst (cint Ltype.Short 4L)))
  in
  ignore (Builder.build_ret b (Some d));
  m

(* -- per-checker assertions --------------------------------------------- *)

let test_uninit () =
  let ds = lint (uninit_module ()) in
  check "flags L001" true (has_code "L001" ds);
  check "as an error" true
    (List.exists (fun d -> d.Lint.code = "L001" && d.Lint.severity = Lint.Error) ds)

let test_maybe_uninit () =
  let ds = lint (maybe_uninit_module ()) in
  check "one-armed store is a warning" true
    (List.exists
       (fun d -> d.Lint.code = "L001" && d.Lint.severity = Lint.Warning)
       ds)

let test_null_deref () =
  check "flags L002" true (has_code "L002" (lint (null_deref_module ())))

let test_double_free () =
  let ds = lint (double_free_module ()) in
  check "flags L004" true (has_code "L004" ds);
  check "no use-after-free noise" false (has_code "L003" ds)

let test_use_after_free () =
  check "flags L003" true (has_code "L003" (lint (use_after_free_module ())))

let test_leak () =
  let ds = lint (leak_module ()) in
  check "flags L005" true (has_code "L005" ds);
  (* freeing the malloc in another sample must not count here *)
  check "clean module has no leak" false (has_code "L005" (lint (clean_module ())))

let test_dead_store () =
  let ds = lint (dead_store_module ()) in
  check "flags L006" true (has_code "L006" ds);
  check_int "exactly the first store" 1
    (List.length (List.filter (fun d -> d.Lint.code = "L006") ds));
  check "no L006 in unreachable code" false
    (has_code "L006" (lint (dead_code_store_module ())))

let test_unreachable () =
  let ds = lint (unreachable_module ()) in
  check "flags L007" true (has_code "L007" ds);
  check "names the dead block" true
    (List.exists (fun d -> d.Lint.block = "dead") ds);
  let ds = lint (dead_code_store_module ()) in
  check "flags L007 between live blocks" true
    (List.exists (fun d -> d.Lint.code = "L007" && d.Lint.block = "dead") ds)

let test_clean () =
  check_int "clean module has zero findings" 0 (List.length (lint (clean_module ())))

let test_only_filter () =
  let ds = Lint.run ~only:[ "L007" ] (uninit_module ()) in
  check_int "other checkers disabled" 0 (List.length ds)

(* -- diagnostics plumbing ----------------------------------------------- *)

let test_severity_threshold () =
  let ds = lint (leak_module ()) in
  check "leak is warning-severity" true (ds <> []);
  check_int "threshold error drops warnings" 0
    (List.length (Lint.filter_severity Lint.Error ds));
  check "threshold info keeps them" true
    (List.length (Lint.filter_severity Lint.Info ds) = List.length ds)

let test_printers () =
  let ds = lint (uninit_module ()) in
  let d = List.hd ds in
  let text = Fmt.str "%a" Lint.pp_diag d in
  check "text has code" true (contains ~affix:"[L001]" text);
  let json = Lint.diag_to_json d in
  check "json has code" true (contains ~affix:{|"code":"L001"|} json);
  check "json has severity" true (contains ~affix:{|"severity":"error"|} json)

let test_count_by_code () =
  let counts = Lint.count_by_code (lint (double_free_module ())) in
  check_int "ten codes tabulated" 10 (List.length counts);
  check_int "one double free" 1 (List.assoc "L004" counts);
  check_int "no uninit" 0 (List.assoc "L001" counts)

(* -- the value abstraction exported to transforms ------------------------ *)

let test_eval_int () =
  let m = mk_module "eval" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m "f" Ltype.int_ [] in
  let two = Vconst (cint Ltype.Int 2L) in
  let three = Vconst (cint Ltype.Int 3L) in
  let sum = Builder.build_add b two three in
  let sel = Builder.build_select b (Vconst (Cbool true)) sum two in
  let wide = Builder.build_cast b sel Ltype.long in
  ignore (Builder.build_ret b (Some sel));
  let table = m.mtypes in
  check "2+3 folds" true (Lint.eval_int table sum = Some 5L);
  check "select folds through" true (Lint.eval_int table sel = Some 5L);
  check "widening cast folds" true (Lint.eval_int table wide = Some 5L);
  check "null proves" true
    (Lint.proves_null table (Vconst (Cnull (Ltype.pointer Ltype.int_))));
  check "malloc is non-null" false
    (Lint.proves_null table sum)

let test_eval_int_narrow () =
  let table = Ltype.create_table () in
  let ev c = Lint.eval_int table (Vconst c) in
  check "sbyte cast truncates then sign-extends" true
    (ev (Ccast (Ltype.sbyte, cint Ltype.Int 300L)) = Some 44L);
  check "ubyte cast zero-extends" true
    (ev (Ccast (Ltype.ubyte, cint Ltype.Int (-1L))) = Some 255L);
  check "short cast truncates" true
    (ev (Ccast (Ltype.short, cint Ltype.Int 70000L)) = Some 4464L);
  check "narrow value kept in range" true
    (ev (cint Ltype.Sbyte (-128L)) = Some (-128L))

(* -- range-driven checkers ---------------------------------------------- *)

let test_overflow () =
  let ds = lint (overflow_module ()) in
  check "flags L008" true (has_code "L008" ds);
  let d = List.find (fun d -> d.Lint.code = "L008") ds in
  check "overflow is a warning" true (d.Lint.severity = Lint.Warning)

let test_div_zero_and_shift () =
  let ds = lint (div_zero_module ()) in
  let l9 = List.filter (fun d -> d.Lint.code = "L009") ds in
  check_int "division and shift both flagged" 2 (List.length l9);
  check "definite div-by-zero is an error" true
    (List.exists (fun d -> d.Lint.severity = Lint.Error) l9);
  check "oversized shift is a warning" true
    (List.exists (fun d -> d.Lint.severity = Lint.Warning) l9)

let test_oob_gep () =
  let ds = lint (oob_gep_module ()) in
  check "flags L010" true (has_code "L010" ds);
  let d = List.find (fun d -> d.Lint.code = "L010") ds in
  check "out-of-bounds gep is an error" true (d.Lint.severity = Lint.Error)

let test_ranges_quiet_on_clean () =
  let ds = lint (clean_ranges_module ()) in
  check "no L008 on in-range arithmetic" false (has_code "L008" ds);
  check "no L009 on nonzero divisor" false (has_code "L009" ds);
  check "no L010 on in-bounds gep" false (has_code "L010" ds)

let test_deterministic_ordering () =
  let m = mk_module "ordering" in
  let b = Builder.for_module m in
  (* define the later-sorting function first: output order must not
     depend on definition order *)
  let zf = Builder.start_function b m "zz" Ltype.int_ [ ("x", Ltype.int_) ] in
  let x = Varg (List.hd zf.fargs) in
  let d1 = Builder.build_div b ~name:"d1" x (Vconst (cint Ltype.Int 0L)) in
  let d2 = Builder.build_div b ~name:"d2" x (Vconst (cint Ltype.Int 0L)) in
  let s = Builder.build_add b ~name:"s" d1 d2 in
  ignore (Builder.build_ret b (Some s));
  let af = Builder.start_function b m "aa" Ltype.int_ [ ("x", Ltype.int_) ] in
  let x = Varg (List.hd af.fargs) in
  let d = Builder.build_div b ~name:"d" x (Vconst (cint Ltype.Int 0L)) in
  ignore (Builder.build_ret b (Some d));
  let ds = lint m in
  check "output is compare_diag-sorted" true
    (List.sort Lint.compare_diag ds = ds);
  check "function aa reported before zz" true
    (match ds with d :: _ -> d.Lint.func = "aa" | [] -> false);
  let zz = List.filter (fun d -> d.Lint.func = "zz") ds in
  check "same-block findings in instruction order" true
    (match zz with
    | a :: b :: _ -> a.Lint.instr_index < b.Lint.instr_index
    | _ -> false)

let test_undef_loads_feed_boundscheck () =
  (* an uninitialized index: lint proves the load undef, and the bounds
     check eliminator drops the (pointless) check guarding it *)
  let m = mk_module "undefidx" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m "f" Ltype.int_ [] in
  let g =
    mk_gvar ~name:"tbl" ~ty:(Ltype.array 8 Ltype.int_)
      ~init:(Czero (Ltype.array 8 Ltype.int_)) ()
  in
  add_gvar m g;
  let idxp = Builder.build_alloca b ~name:"idxp" Ltype.int_ in
  let idx = Builder.build_load b ~name:"idx" idxp in
  let elt =
    Builder.build_gep b (Vglobal g) [ Vconst (cint Ltype.Int 0L); idx ]
  in
  let x = Builder.build_load b ~name:"x" elt in
  ignore (Builder.build_ret b (Some x));
  let undef = Lint.undef_loads m in
  (match idx with
  | Vinstr i -> check "load is proven undef" true (Hashtbl.mem undef i.iid)
  | _ -> assert false);
  let inserted = Llvm_transforms.Boundscheck.insert m in
  check_int "one check inserted" 1 inserted;
  let removed = Llvm_transforms.Boundscheck.eliminate m in
  check_int "undef-index check dropped" 1 removed

(* -- the generic engine on its own -------------------------------------- *)

module Count_lattice = struct
  type fact = int

  let bottom = -1 (* unreached *)
  let equal = Int.equal
  let join = max
end

module Count_flow = Dataflow.Make (Count_lattice)

let test_dataflow_engine () =
  (* forward: longest-instruction-count path from the entry; on fact(),
     the loop must converge and the exit see the through-loop count *)
  let m = Samples.fact_module () in
  let f = Option.get (find_func m "fact") in
  let transfer b fact = if fact < 0 then fact else fact + List.length b.instrs in
  let res =
    Count_flow.run ~direction:Dataflow.Forward ~boundary:0 ~transfer (Cfg.build f)
  in
  let exit = List.nth f.fblocks 3 in
  check "exit reached with positive count" true (Count_flow.after res exit > 0);
  check "entry starts at boundary" true
    (Count_flow.before res (entry_block f) = 0);
  (* backward over the same function *)
  let res_b =
    Count_flow.run ~direction:Dataflow.Backward ~boundary:0 ~transfer (Cfg.build f)
  in
  check "entry sees a path to the exit" true
    (Count_flow.before res_b (entry_block f) > 0)

let test_dataflow_skips_unreachable () =
  let m = unreachable_module () in
  let f = Option.get (find_func m "f") in
  let transfer _ fact = fact in
  let res =
    Count_flow.run ~direction:Dataflow.Forward ~boundary:7 ~transfer (Cfg.build f)
  in
  let dead = List.nth f.fblocks 1 in
  check "unreachable block stays at bottom" true
    (Count_flow.before res dead = Count_lattice.bottom);
  (* backward, the dead block is a predecessor of a live one *)
  let f = Option.get (find_func (dead_code_store_module ()) "f") in
  let dead = List.nth f.fblocks 1 in
  let res =
    Count_flow.run ~direction:Dataflow.Backward ~boundary:7 ~transfer (Cfg.build f)
  in
  check "live exit reached backward" true (Count_flow.before res (List.nth f.fblocks 2) = 7);
  check "unreachable predecessor stays at bottom backward" true
    (Count_flow.after res dead = Count_lattice.bottom
    && Count_flow.before res dead = Count_lattice.bottom)

let tests =
  [ Alcotest.test_case "L001 uninitialized load" `Quick test_uninit;
    Alcotest.test_case "L001 maybe-uninitialized is a warning" `Quick
      test_maybe_uninit;
    Alcotest.test_case "L002 null dereference" `Quick test_null_deref;
    Alcotest.test_case "L004 double free" `Quick test_double_free;
    Alcotest.test_case "L003 use after free" `Quick test_use_after_free;
    Alcotest.test_case "L005 memory leak" `Quick test_leak;
    Alcotest.test_case "L006 dead store" `Quick test_dead_store;
    Alcotest.test_case "L007 unreachable block" `Quick test_unreachable;
    Alcotest.test_case "clean module has zero findings" `Quick test_clean;
    Alcotest.test_case "checker selection (--check)" `Quick test_only_filter;
    Alcotest.test_case "severity threshold" `Quick test_severity_threshold;
    Alcotest.test_case "text and JSON printers" `Quick test_printers;
    Alcotest.test_case "count_by_code tabulates all codes" `Quick
      test_count_by_code;
    Alcotest.test_case "value abstraction folds constants" `Quick test_eval_int;
    Alcotest.test_case "value abstraction respects narrow widths" `Quick
      test_eval_int_narrow;
    Alcotest.test_case "L008 definite signed overflow" `Quick test_overflow;
    Alcotest.test_case "L009 division by zero and oversized shift" `Quick
      test_div_zero_and_shift;
    Alcotest.test_case "L010 provably out-of-bounds gep" `Quick test_oob_gep;
    Alcotest.test_case "range checkers quiet on in-range code" `Quick
      test_ranges_quiet_on_clean;
    Alcotest.test_case "diagnostics deterministically ordered" `Quick
      test_deterministic_ordering;
    Alcotest.test_case "uninit facts drop redundant bounds checks" `Quick
      test_undef_loads_feed_boundscheck;
    Alcotest.test_case "dataflow engine forward and backward" `Quick
      test_dataflow_engine;
    Alcotest.test_case "dataflow engine skips unreachable blocks" `Quick
      test_dataflow_skips_unreachable ]
