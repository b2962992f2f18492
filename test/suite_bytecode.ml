(* Unit tests for the bytecode compiler itself: branch-target
   resolution, phi-copy lowering, constant pooling, fuel-accounting
   parity with the interpreter, unboxed word registers and the
   call-boundary check that guards them, and the verified-module
   contract. *)

open Llvm_ir
open Ir
open Llvm_exec
open Llvm_workloads

let rt = Alcotest.testable Interp.pp_rtval ( = )

(* max(a, b) as an if/else diamond merged by a phi *)
let diamond_module () =
  let m = mk_module "diamond" in
  let b = Builder.for_module m in
  let f =
    Builder.start_function b m ~linkage:External "max" Ltype.long
      [ ("a", Ltype.long); ("b", Ltype.long) ]
  in
  let va = Varg (List.nth f.fargs 0) and vb = Varg (List.nth f.fargs 1) in
  let then_bb = Builder.append_new_block b f "t" in
  let else_bb = Builder.append_new_block b f "e" in
  let join = Builder.append_new_block b f "j" in
  let c = Builder.build_setgt b va vb in
  ignore (Builder.build_condbr b c then_bb else_bb);
  Builder.position_at_end b then_bb;
  ignore (Builder.build_br b join);
  Builder.position_at_end b else_bb;
  ignore (Builder.build_br b join);
  Builder.position_at_end b join;
  let phi = Builder.build_phi b Ltype.long [ (va, then_bb); (vb, else_bb) ] in
  ignore (Builder.build_ret b (Some phi));
  (m, f)

(* three phis whose back edge swaps them: a,b = b,a (needs temporaries) *)
let swap_module ~(trips : int64) () =
  let m = mk_module "swap" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m ~linkage:External "spin" Ltype.long [] in
  let entry = Builder.insertion_block b in
  let loop = Builder.append_new_block b f "loop" in
  let exit_ = Builder.append_new_block b f "done" in
  ignore (Builder.build_br b loop);
  Builder.position_at_end b loop;
  let pa = Builder.build_phi b Ltype.long [ (Vconst (cint Ltype.Long 1L), entry) ] in
  let pb = Builder.build_phi b Ltype.long [ (Vconst (cint Ltype.Long 2L), entry) ] in
  let pi = Builder.build_phi b Ltype.long [ (Vconst (cint Ltype.Long 0L), entry) ] in
  let i' = Builder.build_add b pi (Vconst (cint Ltype.Long 1L)) in
  (match (pa, pb, pi) with
  | Vinstr ia, Vinstr ib, Vinstr ii ->
    phi_add_incoming ia pb loop;
    phi_add_incoming ib pa loop;
    phi_add_incoming ii i' loop
  | _ -> assert false);
  let c = Builder.build_setlt b i' (Vconst (cint Ltype.Long trips)) in
  ignore (Builder.build_condbr b c loop exit_);
  Builder.position_at_end b exit_;
  let ten = Builder.build_mul b pa (Vconst (cint Ltype.Long 10L)) in
  let r = Builder.build_add b ten pb in
  ignore (Builder.build_ret b (Some r));
  (m, f)

(* spin(n): an i32 loop of add/xor/rem/compare/branch, n trips *)
let word_loop_module () =
  let m = mk_module "wordloop" in
  let b = Builder.for_module m in
  let f =
    Builder.start_function b m ~linkage:External "spin" Ltype.int_ [ ("n", Ltype.int_) ]
  in
  let n = Varg (List.hd f.fargs) in
  let i32 v = Vconst (cint Ltype.Int v) in
  let entry = Builder.insertion_block b in
  let loop = Builder.append_new_block b f "loop" in
  let exit_ = Builder.append_new_block b f "done" in
  ignore (Builder.build_br b loop);
  Builder.position_at_end b loop;
  let pi = Builder.build_phi b Ltype.int_ [ (i32 0L, entry) ] in
  let pacc = Builder.build_phi b Ltype.int_ [ (i32 1L, entry) ] in
  let x = Builder.build_xor b (Builder.build_add b pacc pi) (i32 0x5bd1e995L) in
  let r = Builder.build_rem b x (i32 1000003L) in
  let i' = Builder.build_add b pi (i32 1L) in
  (match (pi, pacc) with
  | Vinstr ii, Vinstr ia ->
    phi_add_incoming ii i' loop;
    phi_add_incoming ia r loop
  | _ -> assert false);
  let c = Builder.build_setlt b i' n in
  ignore (Builder.build_condbr b c loop exit_);
  Builder.position_at_end b exit_;
  ignore (Builder.build_ret b (Some r));
  (m, f)

let targets_of = function
  | Bytecode.Jmp t | Bytecode.Br1 t -> [ t ]
  | Bytecode.Bra (_, t, e) -> [ t; e ]
  | Bytecode.Sw (_, cases, d) -> d :: List.map snd (Array.to_list cases)
  | Bytecode.InvokeI { normal; unwind; _ } -> [ normal; unwind ]
  | _ -> []

let test_branch_targets_resolved () =
  let m, f = diamond_module () in
  let mach = Interp.create m in
  (* compile the instrumented form: block heads carry profile hooks *)
  mach.Interp.profiling <- true;
  let c = Bytecode.compile mach f in
  let len = Array.length c.Bytecode.code in
  Array.iter
    (fun i ->
      List.iter
        (fun t ->
          Alcotest.(check bool)
            (Fmt.str "target %d within [0,%d)" t len)
            true
            (t >= 0 && t < len))
        (targets_of i))
    c.Bytecode.code;
  (* edges without phis land directly on a block head (its profile hook) *)
  Array.iter
    (function
      | Bytecode.Bra (_, t, e) ->
        List.iter
          (fun pc ->
            match c.Bytecode.code.(pc) with
            | Bytecode.Prof _ -> ()
            | i ->
              Alcotest.failf "phi-less branch target is %a, not a block head"
                Bytecode.pp_bc i)
          [ t; e ]
      | _ -> ())
    c.Bytecode.code;
  (* and the compiled function still computes max *)
  List.iter
    (fun (a, b) ->
      let args = [ Interp.Rint (Ltype.Long, a); Interp.Rint (Ltype.Long, b) ] in
      let expect = Interp.Rint (Ltype.Long, if a > b then a else b) in
      match Bytecode.exec mach c args with
      | Interp.Normal v -> Alcotest.check rt "max" expect v
      | Interp.Unwinding -> Alcotest.fail "unexpected unwind")
    [ (3L, 9L); (9L, 3L); (-5L, -2L); (7L, 7L) ]

let test_phi_swap_lowering () =
  let m, f = swap_module ~trips:5L () in
  let mach = Interp.create m in
  let c = Bytecode.compile mach f in
  (* back edge must stage the swap through temporaries: the entry edge
     needs 3 copies, the swapping back edge 6 (3 to temps, 3 out) *)
  let copies =
    Array.fold_left
      (fun n -> function Bytecode.Copy _ -> n + 1 | _ -> n)
      0 c.Bytecode.code
  in
  Alcotest.(check bool)
    (Fmt.str "%d phi copies (>= 9)" copies)
    true (copies >= 9);
  (* both tiers agree with the hand-computed fixpoint: the back edge
     runs 4 times, an even number of swaps, so the loop exits with
     (a, b) = (1, 2) and returns 12 *)
  let expect =
    match Interp.exec_func mach f [] with
    | Interp.Normal v -> v
    | Interp.Unwinding -> Alcotest.fail "interp unwound"
  in
  Alcotest.check rt "interp computes the swap" (Interp.Rint (Ltype.Long, 12L))
    expect;
  match Bytecode.exec mach c [] with
  | Interp.Normal v -> Alcotest.check rt "bytecode agrees" expect v
  | Interp.Unwinding -> Alcotest.fail "bytecode unwound"

let test_constant_pooling () =
  let m = mk_module "pool" in
  let b = Builder.for_module m in
  let f =
    Builder.start_function b m ~linkage:External "f" Ltype.long
      [ ("x", Ltype.long); ("y", Ltype.long) ]
  in
  let vx = Varg (List.nth f.fargs 0) and vy = Varg (List.nth f.fargs 1) in
  let forty_two = Vconst (cint Ltype.Long 42L) in
  let a = Builder.build_add b vx forty_two in
  let c = Builder.build_add b vy forty_two in
  let d = Builder.build_mul b a c in
  let e = Builder.build_xor b d forty_two in
  ignore (Builder.build_ret b (Some e));
  let mach = Interp.create m in
  let compiled = Bytecode.compile mach f in
  let occurrences =
    Array.fold_left
      (fun n v -> if v = Interp.Rint (Ltype.Long, 42L) then n + 1 else n)
      0 compiled.Bytecode.cpool
  in
  Alcotest.(check int) "42 pooled once" 1 occurrences

let test_fuel_parity () =
  (* truncating the fuel at every point must trap at the same place and
     report the same executed-instruction count in both tiers *)
  let name, src = List.hd Ehprog.programs in
  let m = Ehprog.compile name src in
  for fuel = 1 to 150 do
    let ri, _ = Engine.run_main ~fuel Engine.Interp_tier m in
    let rb, _ = Engine.run_main ~fuel Engine.Bytecode_tier m in
    let show (r : Interp.run_result) =
      match r.Interp.status with
      | `Returned v -> Fmt.str "returned %a" Interp.pp_rtval v
      | `Unwound -> "unwound"
      | `Exited c -> Fmt.str "exited %d" c
      | `Trapped msg -> "trapped: " ^ msg
    in
    Alcotest.(check string)
      (Fmt.str "fuel %d status" fuel)
      (show ri) (show rb);
    Alcotest.(check int)
      (Fmt.str "fuel %d instructions" fuel)
      ri.Interp.instructions rb.Interp.instructions
  done

let test_rejects_declarations () =
  let m = mk_module "decls" in
  let f =
    mk_func ~name:"putchar" ~return:Ltype.int_ ~params:[ ("c", Ltype.int_) ] ()
  in
  add_func m f;
  let mach = Interp.create m in
  match Bytecode.compile mach f with
  | exception Memory.Trap _ -> ()
  | _ -> Alcotest.fail "compiling a declaration should trap"

let test_disassembler () =
  let listing (m, f) =
    let mach = Interp.create m in
    mach.Interp.profiling <- true;
    Bytecode.disassemble (Bytecode.compile mach f)
  in
  let mentions text needles =
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("listing mentions " ^ needle) true
          (Astring_contains.contains text needle))
      needles
  in
  mentions (listing (diamond_module ())) [ "max"; "ret"; "prof"; "r0" ];
  (* an i32 function keeps its values in word registers, printed w<n>:
     arithmetic, phi copies, the branch condition and the constants *)
  mentions
    (listing (word_loop_module ()))
    [ "spin"; "add.int w"; "rem.int w"; "setlt.int w"; "copy w"; "br w"; "= 1000003" ]

(* The word loop runs without allocating: the minor words of a long run
   less those of a short one, per extra trip.  [Gc.minor_words], since
   [Gc.counters] crashes traced runs on OCaml 5.1.1. *)
let test_word_loop_allocation () =
  let m, f = word_loop_module () in
  let mach = Interp.create m in
  let c = Bytecode.compile mach f in
  let run n =
    mach.Interp.fuel <- max_int;
    let w0 = Gc.minor_words () in
    let r = Bytecode.exec mach c [ Interp.Rint (Ltype.Int, Int64.of_int n) ] in
    (Gc.minor_words () -. w0, r)
  in
  let short, _ = run 1_000 in
  let long, r = run 101_000 in
  let per_trip = (long -. short) /. 100_000. in
  Alcotest.(check bool)
    (Fmt.str "%.3f minor words per trip (< 1)" per_trip)
    true (per_trip < 1.0);
  mach.Interp.fuel <- max_int;
  let expect = Interp.exec_func mach f [ Interp.Rint (Ltype.Int, 101_000L) ] in
  match (expect, r) with
  | Interp.Normal e, Interp.Normal v -> Alcotest.check rt "bytecode agrees" e v
  | _ -> Alcotest.fail "unexpected unwind"

(* main calls [callee] through a pointer to it cast to [fty] *)
let cast_call_module ~name ~(fty : Ltype.t) ~(args : value list)
    (callee : Builder.t -> modul -> func) : modul =
  let m = mk_module name in
  let b = Builder.for_module m in
  let fn = callee b m in
  ignore (Builder.start_function b m ~linkage:External "main" Ltype.int_ []);
  let fp = Builder.build_cast b (Vfunc fn) (Ltype.pointer fty) in
  ignore (Builder.build_ret b (Some (Builder.build_call b fp args)));
  Verify.assert_valid m;
  m

(* A value reaches a word register from outside only as an argument or a
   call result.  Through a cast function pointer either can have the
   wrong shape; both tiers check at the same point and trap alike. *)
let test_call_boundary () =
  let long_to_int =
    cast_call_module ~name:"arg" ~fty:(Ltype.func Ltype.int_ [ Ltype.long ])
      ~args:[ Vconst (cint Ltype.Long 5L) ]
      (fun b m ->
        let f =
          Builder.start_function b m ~linkage:Internal "twice" Ltype.int_
            [ ("x", Ltype.int_) ]
        in
        let x = Varg (List.hd f.fargs) in
        ignore (Builder.build_ret b (Some (Builder.build_add b x x)));
        f)
  in
  let pointer_to_int =
    cast_call_module ~name:"result" ~fty:(Ltype.func Ltype.int_ []) ~args:[]
      (fun b m ->
        let f =
          Builder.start_function b m ~linkage:Internal "cell"
            (Ltype.pointer Ltype.int_) []
        in
        ignore (Builder.build_ret b (Some (Builder.build_malloc b Ltype.int_)));
        f)
  in
  List.iter
    (fun (m, msg, instructions) ->
      let ri = Engine.run_main ~profiling:true Engine.Interp_tier m in
      let rb = Engine.run_main ~profiling:true Engine.Bytecode_tier m in
      Alcotest.(check string) "interp traps" ("trapped: " ^ msg)
        (Interp.status_to_string (fst ri).Interp.status);
      Alcotest.(check int) "at the boundary" instructions (fst ri).Interp.instructions;
      Alcotest.(check (list string)) "tiers agree" []
        (List.map Interp.field_name (Interp.differences ri rb)))
    [ (long_to_int, "call boundary: long value where int expected", 2);
      (pointer_to_int, "call boundary: pointer value where int expected", 4) ]

(* A constant without its type's canonical form (only hand-built IR or
   hostile bitcode makes one) is rejected by the verifier, in memory and
   after a bitcode round trip, so no verified module reaches the
   bytecode tier with a word its type cannot hold. *)
let test_ill_shaped_constant () =
  let m = Samples.ill_shaped_constant_module () in
  let errors m = List.map (Fmt.str "%a" Verify.pp_error) (Verify.verify_module m) in
  Alcotest.(check (list string)) "verifier rejects"
    [ Samples.ill_shaped_constant_error ] (errors m);
  let image, _ = Llvm_bitcode.Encoder.encode m in
  match Llvm_serve.Loader.of_bytes ~name:"odd.bc" image with
  | Error e -> Alcotest.failf "decoder refused the image: %s" e
  | Ok m' ->
    Alcotest.(check (list string)) "rejected after bitcode"
      [ Samples.ill_shaped_constant_error ] (errors m')

(* The tier runs verified modules.  A function only unverified IR can
   make ends the run with one trap, reported as a result: operands
   that disagree with their instruction's type, a block without a
   terminator, a constant wider than its type. *)
let test_ill_typed_traps () =
  let main_with build =
    let m = mk_module "bad" in
    let b = Builder.for_module m in
    ignore (Builder.start_function b m ~linkage:External "main" Ltype.int_ []);
    build b;
    m
  in
  let mixed =
    main_with (fun b ->
        let add =
          Builder.insert b
            (mk_instr ~ty:Ltype.int_ Add
               [ Vconst (cint Ltype.Long 1L); Vconst (cint Ltype.Int 2L) ])
        in
        ignore (Builder.build_ret b (Some (Vinstr add))))
  in
  let unterminated =
    main_with (fun b ->
        ignore (Builder.build_add b (Vconst (cint Ltype.Int 1L)) (Vconst (cint Ltype.Int 2L))))
  in
  List.iter
    (fun (what, m) ->
      Alcotest.(check bool) (what ^ ": unverified") true (Verify.verify_module m <> []);
      let r, _ = Engine.run_main Engine.Bytecode_tier m in
      Alcotest.(check string) what "trapped: bytecode: ill-typed function main"
        (Interp.status_to_string r.Interp.status))
    [ ("mixed operand types", mixed); ("unterminated block", unterminated);
      ("ill-shaped constant", Samples.ill_shaped_constant_module ()) ]

(* A constant gep index too large to fold into a byte offset is scaled
   at run time, with the interpreter's arithmetic: a boxed [long] first
   index and an [int] word index into an array. *)
let test_huge_gep_index () =
  let m = mk_module "huge" in
  let b = Builder.for_module m in
  ignore (Builder.start_function b m ~linkage:External "main" Ltype.int_ []);
  let arr = Builder.build_malloc b (Ltype.array 4 Ltype.int_) in
  let p =
    Builder.build_gep b arr
      [ Vconst (cint Ltype.Long 0x1000_0000L); Vconst (cint Ltype.Int 0x2000_0000L) ]
  in
  let addr v = Builder.build_cast b v Ltype.long in
  let delta = Builder.build_sub b (addr p) (addr arr) in
  let high = Builder.build_shr b delta (Vconst (cint Ltype.Long 28L)) in
  ignore (Builder.build_ret b (Some (Builder.build_cast b high Ltype.int_)));
  Verify.assert_valid m;
  let c = Bytecode.compile (Interp.create m) (Option.get (find_func m "main")) in
  Alcotest.(check bool) "scaled at run time" true
    (Array.exists
       (function
         | Bytecode.GepI (_, _, steps) ->
           Array.for_all (function Bytecode.Gscale _ -> true | Goff _ -> false) steps
         | _ -> false)
       c.Bytecode.code);
  let ri = Engine.run_main ~profiling:true Engine.Interp_tier m in
  let rb = Engine.run_main ~profiling:true Engine.Bytecode_tier m in
  (* 0x1000_0000 * 16 + 0x2000_0000 * 4 bytes, shifted down by 28 *)
  Alcotest.(check string) "offset" "returned 24"
    (Interp.status_to_string (fst ri).Interp.status);
  Alcotest.(check (list string)) "tiers agree" []
    (List.map Interp.field_name (Interp.differences ri rb))

let tests =
  [ Alcotest.test_case "branch targets resolve to code offsets" `Quick
      test_branch_targets_resolved;
    Alcotest.test_case "phi swaps stage through temporaries" `Quick
      test_phi_swap_lowering;
    Alcotest.test_case "constants are pooled" `Quick test_constant_pooling;
    Alcotest.test_case "fuel accounting matches the interpreter" `Quick
      test_fuel_parity;
    Alcotest.test_case "declarations are rejected" `Quick
      test_rejects_declarations;
    Alcotest.test_case "disassembler prints a listing" `Quick
      test_disassembler;
    Alcotest.test_case "an i32 loop allocates nothing" `Quick
      test_word_loop_allocation;
    Alcotest.test_case "call boundary traps alike in both tiers" `Quick
      test_call_boundary;
    Alcotest.test_case "ill-shaped constants fail verification" `Quick
      test_ill_shaped_constant;
    Alcotest.test_case "ill-typed functions trap, never raise" `Quick
      test_ill_typed_traps;
    Alcotest.test_case "huge constant gep indices agree" `Quick
      test_huge_gep_index ]
