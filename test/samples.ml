(* Shared sample modules used across test suites. *)

open Llvm_ir
open Ir

(* int add1(int x) { return x + 1; } *)
let add1_module () =
  let m = mk_module "add1" in
  let b = Builder.for_module m in
  let f =
    Builder.start_function b m ~linkage:External "add1" Ltype.int_
      [ ("x", Ltype.int_) ]
  in
  let x = Varg (List.hd f.fargs) in
  let sum = Builder.build_add b ~name:"sum" x (Vconst (cint Ltype.Int 1L)) in
  ignore (Builder.build_ret b (Some sum));
  m

(* Iterative factorial with a loop, allocas promoted later by mem2reg. *)
let fact_module () =
  let m = mk_module "fact" in
  let b = Builder.for_module m in
  let f =
    Builder.start_function b m ~linkage:External "fact" Ltype.int_
      [ ("n", Ltype.int_) ]
  in
  let n = Varg (List.hd f.fargs) in
  let acc_slot = Builder.build_alloca b ~name:"acc" Ltype.int_ in
  let i_slot = Builder.build_alloca b ~name:"i" Ltype.int_ in
  let one = Vconst (cint Ltype.Int 1L) in
  ignore (Builder.build_store b one acc_slot);
  ignore (Builder.build_store b one i_slot);
  let loop = Builder.append_new_block b f "loop" in
  let body = Builder.append_new_block b f "body" in
  let exit = Builder.append_new_block b f "exit" in
  ignore (Builder.build_br b loop);
  Builder.position_at_end b loop;
  let i = Builder.build_load b ~name:"iv" i_slot in
  let cond = Builder.build_setle b ~name:"cond" i n in
  ignore (Builder.build_condbr b cond body exit);
  Builder.position_at_end b body;
  let acc = Builder.build_load b ~name:"av" acc_slot in
  let acc' = Builder.build_mul b ~name:"av2" acc i in
  ignore (Builder.build_store b acc' acc_slot);
  let i' = Builder.build_add b ~name:"iv2" i one in
  ignore (Builder.build_store b i' i_slot);
  ignore (Builder.build_br b loop);
  Builder.position_at_end b exit;
  let result = Builder.build_load b ~name:"result" acc_slot in
  ignore (Builder.build_ret b (Some result));
  m

(* A module exercising structs, geps, globals, casts, switch, phi, and a
   recursive named type (a linked list). *)
let kitchen_sink_module () =
  let m = mk_module "sink" in
  define_type m "node"
    (Ltype.struct_ [ Ltype.int_; Ltype.pointer (Ltype.Named "node") ]);
  let b = Builder.for_module m in
  let g =
    mk_gvar ~linkage:Internal ~name:"counter" ~ty:Ltype.int_
      ~init:(cint Ltype.Int 0L) ()
  in
  add_gvar m g;
  let tbl =
    mk_gvar ~linkage:Internal ~constant:true ~name:"table"
      ~ty:(Ltype.array 3 Ltype.int_)
      ~init:
        (Carray (Ltype.int_, [ cint Ltype.Int 10L; cint Ltype.Int 20L; cint Ltype.Int 30L ]))
      ()
  in
  add_gvar m tbl;
  let f =
    Builder.start_function b m ~linkage:External "sum_list" Ltype.int_
      [ ("head", Ltype.pointer (Ltype.Named "node")); ("sel", Ltype.int_) ]
  in
  let head = Varg (List.nth f.fargs 0) in
  let sel = Varg (List.nth f.fargs 1) in
  let entry = Builder.insertion_block b in
  let loop = Builder.append_new_block b f "loop" in
  let body = Builder.append_new_block b f "body" in
  let exit = Builder.append_new_block b f "exit" in
  let case1 = Builder.append_new_block b f "case1" in
  ignore
    (Builder.build_switch b sel loop
       [ (cint Ltype.Int 1L, case1); (cint Ltype.Int 2L, loop) ]);
  Builder.position_at_end b case1;
  let t0 = Builder.build_gep_const b ~name:"slot" (Vglobal tbl) [ 0; 1 ] in
  let t1 = Builder.build_load b ~name:"tv" t0 in
  ignore (Builder.build_store b t1 (Vglobal g));
  ignore (Builder.build_br b loop);
  Builder.position_at_end b loop;
  let phi_sum =
    Builder.build_phi b ~name:"sum" Ltype.int_
      [ (Vconst (cint Ltype.Int 0L), entry); (Vconst (cint Ltype.Int 0L), case1) ]
  in
  let phi_cur =
    Builder.build_phi b ~name:"cur" (Ltype.pointer (Ltype.Named "node"))
      [ (head, entry); (head, case1) ]
  in
  let isnull =
    Builder.build_seteq b ~name:"isnull" phi_cur
      (Vconst (Cnull (Ltype.pointer (Ltype.Named "node"))))
  in
  ignore (Builder.build_condbr b isnull exit body);
  Builder.position_at_end b body;
  let vptr = Builder.build_gep_const b ~name:"vptr" phi_cur [ 0; 0 ] in
  let v = Builder.build_load b ~name:"v" vptr in
  let sum' = Builder.build_add b ~name:"sum2" phi_sum v in
  let nptr = Builder.build_gep_const b ~name:"nptr" phi_cur [ 0; 1 ] in
  let nxt = Builder.build_load b ~name:"nxt" nptr in
  (match (phi_sum, phi_cur) with
  | Vinstr ps, Vinstr pc ->
    phi_add_incoming ps sum' body;
    phi_add_incoming pc nxt body
  | _ -> assert false);
  ignore (Builder.build_br b loop);
  Builder.position_at_end b exit;
  let widened = Builder.build_cast b ~name:"wide" phi_sum Ltype.long in
  let narrowed = Builder.build_cast b ~name:"narrow" widened Ltype.int_ in
  ignore (Builder.build_ret b (Some narrowed));
  m

(* A module with invoke/unwind: caller invokes may_throw and cleans up. *)
let exceptions_module () =
  let m = mk_module "eh" in
  let b = Builder.for_module m in
  let may_throw =
    Builder.start_function b m ~linkage:Internal "may_throw" Ltype.void
      [ ("do_throw", Ltype.bool_) ]
  in
  let cond = Varg (List.hd may_throw.fargs) in
  let throw_bb = Builder.append_new_block b may_throw "throw" in
  let ok_bb = Builder.append_new_block b may_throw "ok" in
  ignore (Builder.build_condbr b cond throw_bb ok_bb);
  Builder.position_at_end b throw_bb;
  ignore (Builder.build_unwind b);
  Builder.position_at_end b ok_bb;
  ignore (Builder.build_ret b None);
  let caller =
    Builder.start_function b m ~linkage:External "caller" Ltype.int_
      [ ("do_throw", Ltype.bool_) ]
  in
  let arg = Varg (List.hd caller.fargs) in
  let normal = Builder.append_new_block b caller "normal" in
  let cleanup = Builder.append_new_block b caller "cleanup" in
  ignore (Builder.build_invoke b (Vfunc may_throw) [ arg ] ~normal ~unwind:cleanup);
  Builder.position_at_end b normal;
  ignore (Builder.build_ret b (Some (Vconst (cint Ltype.Int 0L))));
  Builder.position_at_end b cleanup;
  ignore (Builder.build_ret b (Some (Vconst (cint Ltype.Int 1L))));
  m

(* int main() { return 0x1_0000_0007 / 2; }, with the constant kept
   wider than [int], as only hand-built IR or hostile bitcode has it
   ([Ir.cint] would normalize it to 7).  The verifier rejects it. *)
let ill_shaped_constant_module () =
  let m = mk_module "odd" in
  let b = Builder.for_module m in
  ignore (Builder.start_function b m ~linkage:External "main" Ltype.int_ []);
  let odd = Vconst (Cint (Ltype.int_, 0x1_0000_0007L)) in
  ignore
    (Builder.build_ret b (Some (Builder.build_div b odd (Vconst (cint Ltype.Int 2L)))));
  m

(* The verifier's message for [ill_shaped_constant_module]. *)
let ill_shaped_constant_error =
  "main/div: constant int 4294967303 is not a canonical integer of its type"

let all () =
  [ add1_module (); fact_module (); kitchen_sink_module (); exceptions_module () ]
