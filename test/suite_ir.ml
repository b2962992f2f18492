(* Unit tests for the core IR: types, constants, use-lists, verifier. *)

open Llvm_ir
open Ir

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let table = Ltype.create_table ()

let test_opcode_count () =
  check_int "31 opcodes (paper section 2.1)" 31 (List.length all_opcodes)

let test_type_sizes () =
  check_int "bool" 1 (Ltype.size_of table Ltype.bool_);
  check_int "sbyte" 1 (Ltype.size_of table Ltype.sbyte);
  check_int "short" 2 (Ltype.size_of table Ltype.short);
  check_int "int" 4 (Ltype.size_of table Ltype.int_);
  check_int "long" 8 (Ltype.size_of table Ltype.long);
  check_int "float" 4 (Ltype.size_of table Ltype.float_);
  check_int "double" 8 (Ltype.size_of table Ltype.double);
  check_int "pointer" 8 (Ltype.size_of table (Ltype.pointer Ltype.int_));
  check_int "array" 12 (Ltype.size_of table (Ltype.array 3 Ltype.int_))

let test_struct_layout () =
  (* { sbyte, int, sbyte } pads to 12 bytes with int at offset 4. *)
  let s = Ltype.struct_ [ Ltype.sbyte; Ltype.int_; Ltype.sbyte ] in
  check_int "size" 12 (Ltype.size_of table s);
  check_int "field 0 offset" 0 (Ltype.field_offset table s 0);
  check_int "field 1 offset" 4 (Ltype.field_offset table s 1);
  check_int "field 2 offset" 8 (Ltype.field_offset table s 2);
  (* { sbyte, double } aligns the double at 8. *)
  let s2 = Ltype.struct_ [ Ltype.sbyte; Ltype.double ] in
  check_int "size with double" 16 (Ltype.size_of table s2);
  check_int "double offset" 8 (Ltype.field_offset table s2 1)

let test_recursive_type () =
  let tbl = Ltype.create_table () in
  Hashtbl.replace tbl "node"
    (Ltype.struct_ [ Ltype.int_; Ltype.pointer (Ltype.Named "node") ]);
  check_int "recursive struct size" 16 (Ltype.size_of tbl (Ltype.Named "node"));
  check "self-equal through names" true
    (Ltype.equal tbl (Ltype.Named "node")
       (Ltype.struct_ [ Ltype.int_; Ltype.pointer (Ltype.Named "node") ]))

let test_type_printing () =
  check_str "function type" "int (sbyte*, ...)"
    (Ltype.to_string (Ltype.func ~varargs:true Ltype.int_ [ Ltype.pointer Ltype.sbyte ]));
  check_str "nested" "{ int, [4 x double]* }"
    (Ltype.to_string
       (Ltype.struct_ [ Ltype.int_; Ltype.pointer (Ltype.array 4 Ltype.double) ]))

let test_normalize_int () =
  check "sbyte wraps" true (normalize_int Ltype.Sbyte 200L = -56L);
  check "ubyte wraps" true (normalize_int Ltype.Ubyte 300L = 44L);
  check "short sign" true (normalize_int Ltype.Short 0x8000L = -32768L);
  check "long identity" true (normalize_int Ltype.Long Int64.min_int = Int64.min_int)

let test_use_lists () =
  let m = mk_module "t" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m "f" Ltype.int_ [ ("x", Ltype.int_) ] in
  let x = Varg (List.hd _f.fargs) in
  let a = Builder.build_add b ~name:"a" x x in
  let c = Builder.build_mul b ~name:"c" a a in
  ignore (Builder.build_ret b (Some c));
  check_int "x used twice" 2 (num_uses x);
  check_int "a used twice" 2 (num_uses a);
  check_int "c used once" 1 (num_uses c);
  (* RAUW a -> x: now x has 4 uses, a none. *)
  replace_all_uses_with a x;
  check_int "after RAUW x has 4 uses" 4 (num_uses x);
  check_int "after RAUW a unused" 0 (num_uses a);
  (match a with
  | Vinstr ai ->
    erase_instr ai;
    check_int "x drops to 2 uses after erase" 2 (num_uses x)
  | _ -> assert false)

let test_successors_predecessors () =
  let m = Samples.fact_module () in
  let f = Option.get (find_func m "fact") in
  let entry = entry_block f in
  let loop = List.nth f.fblocks 1 in
  let body = List.nth f.fblocks 2 in
  let exit = List.nth f.fblocks 3 in
  let succ b = List.map (fun x -> x.bname) (successors (Option.get (terminator b))) in
  Alcotest.(check (list string)) "entry -> loop" [ "loop" ] (succ entry);
  Alcotest.(check (list string)) "loop -> body,exit" [ "body"; "exit" ] (succ loop);
  Alcotest.(check (list string)) "body -> loop" [ "loop" ] (succ body);
  check_int "loop preds" 2 (List.length (predecessors loop));
  check_int "exit preds" 1 (List.length (predecessors exit));
  check_int "entry preds" 0 (List.length (predecessors entry));
  ignore exit

let test_verifier_accepts_samples () =
  List.iter
    (fun m ->
      match Verify.verify_module m with
      | [] -> ()
      | errs ->
        Alcotest.failf "verifier rejected %s: %s" m.mname
          (Fmt.str "%a" Fmt.(list Verify.pp_error) errs))
    (Samples.all ())

let test_verifier_rejects_bad_store () =
  let m = mk_module "bad" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m "f" Ltype.void [] in
  let p = Builder.build_alloca b Ltype.int_ in
  (* Store a long through an int*: type error. *)
  let i = mk_instr ~ty:Ltype.Void Store [ Vconst (cint Ltype.Long 1L); p ] in
  append_instr (Builder.insertion_block b) i;
  ignore (Builder.build_ret b None);
  check "rejected" true (Verify.verify_module m <> [])

let test_verifier_rejects_missing_terminator () =
  let m = mk_module "bad2" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m "f" Ltype.void [] in
  ignore (Builder.build_alloca b Ltype.int_);
  check "rejected" true (Verify.verify_module m <> [])

(* Errors name their place as function/opcode for type rules and
   function/block for block structure. *)
let test_verifier_error_locations () =
  let errors m = List.map (Fmt.str "%a" Verify.pp_error) (Verify.verify_module m) in
  let m = mk_module "bad" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m "f" Ltype.void [] in
  let p = Builder.build_alloca b Ltype.int_ in
  let i = mk_instr ~ty:Ltype.Void Store [ Vconst (cint Ltype.Long 1L); p ] in
  append_instr (Builder.insertion_block b) i;
  Alcotest.(check (list string)) "type rule"
    [ "f/entry: block does not end in a terminator";
      "f/store: stored value long does not match pointee int" ]
    (errors m)

(* A function with an entry block (insertion point) and a ret-terminated
   "dest" block, for terminator tests that need a label operand. *)
let with_dest_block () =
  let m = mk_module "bad" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m "f" Ltype.void [] in
  let entry = Builder.insertion_block b in
  let dest = Builder.append_new_block b f "dest" in
  Builder.position_at_end b dest;
  ignore (Builder.build_ret b None);
  Builder.position_at_end b entry;
  (m, b, entry, dest)

let test_verifier_rejects_float_switch () =
  let m, _, entry, dest = with_dest_block () in
  let i =
    mk_instr ~ty:Ltype.Void Switch
      [ Vconst (Cfloat (Ltype.double, 1.0)); Vblock dest ]
  in
  append_instr entry i;
  check "rejected" true (Verify.verify_module m <> [])

let test_verifier_rejects_switch_case_type_mismatch () =
  let m, _, entry, dest = with_dest_block () in
  (* int condition, long case value *)
  let i =
    mk_instr ~ty:Ltype.Void Switch
      [ Vconst (cint Ltype.Int 0L); Vblock dest;
        Vconst (cint Ltype.Long 1L); Vblock dest ]
  in
  append_instr entry i;
  check "rejected" true (Verify.verify_module m <> [])

let test_verifier_accepts_good_switch () =
  let m, _, entry, dest = with_dest_block () in
  let i =
    mk_instr ~ty:Ltype.Void Switch
      [ Vconst (cint Ltype.Int 0L); Vblock dest;
        Vconst (cint Ltype.Int 1L); Vblock dest ]
  in
  append_instr entry i;
  check "accepted" true (Verify.verify_module m = [])

let test_verifier_rejects_free_of_non_pointer () =
  let m = mk_module "bad" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m "f" Ltype.void [] in
  let i = mk_instr ~ty:Ltype.Void Free [ Vconst (cint Ltype.Int 1L) ] in
  append_instr (Builder.insertion_block b) i;
  ignore (Builder.build_ret b None);
  check "rejected" true (Verify.verify_module m <> [])

let test_verifier_rejects_non_pointer_alloca () =
  let m = mk_module "bad" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m "f" Ltype.void [] in
  (* alloca of int must produce int*, not int *)
  let i = mk_instr ~ty:Ltype.int_ ~alloc_ty:Ltype.int_ Alloca [] in
  append_instr (Builder.insertion_block b) i;
  ignore (Builder.build_ret b None);
  check "rejected" true (Verify.verify_module m <> [])

let test_verifier_rejects_malloc_without_alloc_ty () =
  let m = mk_module "bad" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m "f" Ltype.void [] in
  let i = mk_instr ~ty:(Ltype.pointer Ltype.int_) Malloc [] in
  append_instr (Builder.insertion_block b) i;
  ignore (Builder.build_ret b None);
  check "rejected" true (Verify.verify_module m <> [])

let test_verifier_rejects_float_alloc_count () =
  let m = mk_module "bad" in
  let b = Builder.for_module m in
  let _f = Builder.start_function b m "f" Ltype.void [] in
  let i =
    mk_instr ~ty:(Ltype.pointer Ltype.int_) ~alloc_ty:Ltype.int_ Alloca
      [ Vconst (Cfloat (Ltype.double, 2.0)) ]
  in
  append_instr (Builder.insertion_block b) i;
  ignore (Builder.build_ret b None);
  check "rejected" true (Verify.verify_module m <> [])

(* The verifier is total: a module with too few operands or a non-label
   in a label slot yields errors, never an exception.  These shapes once
   raised [Invalid_argument "index out of bounds"] and
   [Ir.as_block: operand is not a basic block] from inside it; a
   function with a shape error skips its later checks. *)
let test_verifier_total_on_shape_errors () =
  let errors m =
    List.map (Fmt.str "%a" Verify.pp_error) (Verify.verify_module m)
  in
  let m, _, entry, dest = with_dest_block () in
  append_instr entry
    (mk_instr ~ty:Ltype.int_ Add [ Vconst (cint Ltype.Int 1L) ]);
  append_instr entry (mk_instr ~ty:Ltype.Void Br [ Vblock dest ]);
  Alcotest.(check (list string)) "one-operand add"
    [ "f/add: takes 2 operands, has 1 operands" ]
    (errors m);
  let m, b, _, dest = with_dest_block () in
  ignore (Builder.build_br b dest);
  prepend_instr dest
    (mk_instr ~ty:Ltype.int_ Phi
       [ Vconst (cint Ltype.Int 1L); Vconst (cint Ltype.Int 2L) ]);
  Alcotest.(check (list string)) "phi with a constant label"
    [ "f/phi: label operand is not a basic block" ]
    (errors m)

(* A named type that is never defined is a verifier error, not an
   escaping [Ltype.Unresolved] or a hang. *)
let test_verifier_reports_undefined_type () =
  let m =
    Llvm_asm.Parser.parse_module
      "void %f(%T* %p) {\nentry:\n  store int 0, %T* %p\n  ret void\n}"
  in
  let errors () =
    List.map (Fmt.str "%a" Verify.pp_error) (Verify.verify_module m)
  in
  Alcotest.(check (list string)) "undefined %T" [ "f: undefined type %T" ]
    (errors ());
  (* a cycle of names resolves no better, and once looped forever *)
  define_type m "T" (Ltype.Named "T");
  Alcotest.(check (list string)) "%T = %T" [ "f: undefined type %T" ]
    (errors ())

let test_phi_helpers () =
  let m = mk_module "phis" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m "f" Ltype.int_ [ ("x", Ltype.int_) ] in
  let entry = Builder.insertion_block b in
  let other = Builder.append_new_block b f "other" in
  let join = Builder.append_new_block b f "join" in
  let x = Varg (List.hd f.fargs) in
  ignore (Builder.build_condbr b (Vconst (Cbool true)) other join);
  Builder.position_at_end b other;
  ignore (Builder.build_br b join);
  Builder.position_at_end b join;
  let p =
    Builder.build_phi b ~name:"p" Ltype.int_
      [ (x, entry); (Vconst (cint Ltype.Int 7L), other) ]
  in
  ignore (Builder.build_ret b (Some p));
  (match p with
  | Vinstr pi ->
    check_int "two incoming" 2 (List.length (phi_incoming pi));
    phi_remove_incoming pi other;
    check_int "one incoming" 1 (List.length (phi_incoming pi));
    let v, blk = List.hd (phi_incoming pi) in
    check "incoming value is x" true (value_equal v x);
    check "incoming block is entry" true (blk == entry)
  | _ -> assert false)

let test_constant_types () =
  let tbl = Ltype.create_table () in
  check "int const type" true
    (type_of_const tbl (cint Ltype.Int 5L) = Ltype.int_);
  check "array const type" true
    (type_of_const tbl (Carray (Ltype.int_, [ cint Ltype.Int 1L ]))
    = Ltype.array 1 Ltype.int_);
  check "null type" true
    (type_of_const tbl (Cnull (Ltype.pointer Ltype.int_)) = Ltype.pointer Ltype.int_)

let test_fold_arith () =
  let i k v = cint k v in
  let fb op a bb = Fold.fold_binop op a bb in
  check "add" true (fb Add (i Ltype.Int 2L) (i Ltype.Int 3L) = Some (i Ltype.Int 5L));
  check "sbyte overflow wraps" true
    (fb Add (i Ltype.Sbyte 100L) (i Ltype.Sbyte 100L) = Some (i Ltype.Sbyte (-56L)));
  check "div by zero does not fold" true (fb Div (i Ltype.Int 1L) (i Ltype.Int 0L) = None);
  check "signed div" true
    (fb Div (i Ltype.Int (-7L)) (i Ltype.Int 2L) = Some (i Ltype.Int (-3L)));
  check "unsigned div" true
    (fb Div (i Ltype.Uint 0xFFFFFFFFL) (i Ltype.Uint 2L) = Some (i Ltype.Uint 0x7FFFFFFFL));
  check "signed shr" true
    (fb Shr (i Ltype.Int (-8L)) (i Ltype.Int 1L) = Some (i Ltype.Int (-4L)));
  check "unsigned shr" true
    (fb Shr (i Ltype.Uint (-8L)) (i Ltype.Uint 1L) = Some (i Ltype.Uint 0x7FFFFFFCL));
  check "min_int div -1" true
    (fb Div (i Ltype.Long Int64.min_int) (i Ltype.Long (-1L))
    = Some (i Ltype.Long Int64.min_int))

let test_fold_cmp () =
  let i k v = cint k v in
  check "signed lt" true
    (Fold.fold_cmp SetLT (i Ltype.Int (-1L)) (i Ltype.Int 1L) = Some (Cbool true));
  check "unsigned lt treats -1 as max" true
    (Fold.fold_cmp SetLT (i Ltype.Uint (-1L)) (i Ltype.Uint 1L) = Some (Cbool false));
  check "global is not null" true
    (Fold.fold_cmp SetEQ
       (Cgvar (mk_gvar ~name:"g" ~ty:Ltype.int_ ()))
       (Cnull (Ltype.pointer Ltype.int_))
    = Some (Cbool false))

let test_fold_cast () =
  let i k v = cint k v in
  check "int to sbyte truncates" true
    (Fold.fold_cast (i Ltype.Int 300L) Ltype.sbyte = Some (i Ltype.Sbyte 44L));
  check "int to bool" true (Fold.fold_cast (i Ltype.Int 2L) Ltype.bool_ = Some (Cbool true));
  check "int to double" true
    (Fold.fold_cast (i Ltype.Int 3L) Ltype.double = Some (Cfloat (Ltype.double, 3.0)));
  check "uint to double is nonnegative" true
    (Fold.fold_cast (i Ltype.Uint (-1L)) Ltype.double
    = Some (Cfloat (Ltype.double, 4294967295.0)));
  check "null to other pointer" true
    (Fold.fold_cast (Cnull (Ltype.pointer Ltype.int_)) (Ltype.pointer Ltype.sbyte)
    = Some (Cnull (Ltype.pointer Ltype.sbyte)))

(* The word table (integers of 32 bits or fewer as immediate ints)
   against results worked out from each kind's width, and the int64 view
   [int_binop_exn]/[int_cmp] takes of the same table. *)
let test_fold_words () =
  List.iter
    (fun k ->
      let bits = Ltype.int_bits k and signed = Ltype.is_signed k in
      let name = Ltype.to_string (Ltype.Integer k) in
      let top = 1 lsl (bits - 1) and all = (1 lsl bits) - 1 in
      (* canonical forms: the top bit set, -1, the least and greatest *)
      let hi = if signed then -top else top in
      let m1 = if signed then -1 else all in
      let minv = if signed then -top else 0 in
      let maxv = if signed then top - 1 else all in
      let bin op a b expect =
        let what = Fmt.str "%s %s %d, %d" (opcode_name op) name a b in
        Alcotest.(check int) what expect (Fold.word_binop_exn k op a b);
        Alcotest.(check int64) (what ^ " (int64)") (Int64.of_int expect)
          (Fold.int_binop_exn k op (Int64.of_int a) (Int64.of_int b))
      in
      let cmp op a b expect =
        let what = Fmt.str "%s %s %d, %d" (opcode_name op) name a b in
        Alcotest.(check bool) what expect (Fold.word_cmp k op a b);
        Alcotest.(check bool) (what ^ " (int64)") expect
          (Fold.int_cmp k op (Int64.of_int a) (Int64.of_int b))
      in
      (* wraparound *)
      bin Add maxv 1 minv;
      bin Sub minv 1 maxv;
      bin Mul maxv 2 (if signed then -2 else all - 1);
      bin Mul hi 2 0;
      (* min / -1, and -1 as the greatest unsigned divisor *)
      if signed then begin
        bin Div minv (-1) minv;
        bin Rem minv (-1) 0
      end
      else begin
        bin Div hi m1 0;
        bin Div m1 m1 1;
        bin Rem hi m1 hi
      end;
      (* division with the top bit set: truncating when signed, on the
         unsigned magnitude otherwise *)
      bin Div hi 3 (if signed then -(top / 3) else top / 3);
      bin Rem hi 3 (if signed then -(top mod 3) else top mod 3);
      Alcotest.check_raises (name ^ " div by zero") Fold.Undefined (fun () ->
          ignore (Fold.word_binop_exn k Div 1 0));
      Alcotest.check_raises (name ^ " rem by zero") Fold.Undefined (fun () ->
          ignore (Fold.word_binop_exn k Rem hi 0));
      (* shift counts bits-1, bits, 63 and 64 *)
      bin Shl 1 (bits - 1) hi;
      List.iter (fun s -> bin Shl 1 s 0) [ bits; 63; 64 ];
      bin Shr m1 (bits - 1) (if signed then -1 else 1);
      List.iter (fun s -> bin Shr m1 s (if signed then -1 else 0)) [ bits; 63; 64 ];
      bin Shr maxv (bits - 1) (if signed then 0 else 1);
      (* a negative count is a huge unsigned one *)
      bin Shl 1 m1 0;
      (* compares: -1 is the greatest value when unsigned *)
      cmp SetLT m1 1 signed;
      cmp SetGT m1 1 (not signed);
      cmp SetGT hi 1 (not signed);
      cmp SetGE m1 hi true;
      cmp SetLE minv maxv true;
      cmp SetEQ m1 m1 true;
      cmp SetNE 0 m1 true)
    Ltype.[ Sbyte; Ubyte; Short; Ushort; Int; Uint ]

let tests =
  [ Alcotest.test_case "opcode count is 31" `Quick test_opcode_count;
    Alcotest.test_case "primitive type sizes" `Quick test_type_sizes;
    Alcotest.test_case "struct layout" `Quick test_struct_layout;
    Alcotest.test_case "recursive named types" `Quick test_recursive_type;
    Alcotest.test_case "type printing" `Quick test_type_printing;
    Alcotest.test_case "integer normalization" `Quick test_normalize_int;
    Alcotest.test_case "use lists and RAUW" `Quick test_use_lists;
    Alcotest.test_case "successors and predecessors" `Quick test_successors_predecessors;
    Alcotest.test_case "verifier accepts samples" `Quick test_verifier_accepts_samples;
    Alcotest.test_case "verifier rejects ill-typed store" `Quick test_verifier_rejects_bad_store;
    Alcotest.test_case "verifier rejects missing terminator" `Quick
      test_verifier_rejects_missing_terminator;
    Alcotest.test_case "verifier error locations" `Quick
      test_verifier_error_locations;
    Alcotest.test_case "verifier rejects float switch condition" `Quick
      test_verifier_rejects_float_switch;
    Alcotest.test_case "verifier rejects switch case type mismatch" `Quick
      test_verifier_rejects_switch_case_type_mismatch;
    Alcotest.test_case "verifier accepts well-typed switch" `Quick
      test_verifier_accepts_good_switch;
    Alcotest.test_case "verifier rejects free of non-pointer" `Quick
      test_verifier_rejects_free_of_non_pointer;
    Alcotest.test_case "verifier rejects non-pointer alloca result" `Quick
      test_verifier_rejects_non_pointer_alloca;
    Alcotest.test_case "verifier rejects malloc without allocated type" `Quick
      test_verifier_rejects_malloc_without_alloc_ty;
    Alcotest.test_case "verifier rejects float allocation count" `Quick
      test_verifier_rejects_float_alloc_count;
    Alcotest.test_case "verifier is total on operand shape errors" `Quick
      test_verifier_total_on_shape_errors;
    Alcotest.test_case "verifier reports an undefined named type" `Quick
      test_verifier_reports_undefined_type;
    Alcotest.test_case "phi helpers" `Quick test_phi_helpers;
    Alcotest.test_case "constant types" `Quick test_constant_types;
    Alcotest.test_case "constant folding: arithmetic" `Quick test_fold_arith;
    Alcotest.test_case "constant folding: comparisons" `Quick test_fold_cmp;
    Alcotest.test_case "constant folding: the word table" `Quick test_fold_words;
    Alcotest.test_case "constant folding: casts" `Quick test_fold_cast ]

(* -- qcheck properties on the type system and integer model ------------------ *)

let rec arbitrary_ty (rng : Random.State.t) depth : Ltype.t =
  let kinds =
    [ Ltype.Sbyte; Ltype.Ubyte; Ltype.Short; Ltype.Ushort; Ltype.Int;
      Ltype.Uint; Ltype.Long; Ltype.Ulong ]
  in
  if depth = 0 then
    match Random.State.int rng 4 with
    | 0 -> Ltype.Bool
    | 1 -> Ltype.Integer (List.nth kinds (Random.State.int rng 8))
    | 2 -> Ltype.Float
    | _ -> Ltype.Double
  else
    match Random.State.int rng 4 with
    | 0 -> Ltype.Pointer (arbitrary_ty rng (depth - 1))
    | 1 -> Ltype.Array (1 + Random.State.int rng 5, arbitrary_ty rng (depth - 1))
    | 2 ->
      Ltype.Struct
        (List.init (1 + Random.State.int rng 4) (fun _ ->
             arbitrary_ty rng (depth - 1)))
    | _ -> arbitrary_ty rng 0

let test_layout_properties () =
  let tbl = Ltype.create_table () in
  let prop seed =
    let rng = Random.State.make [| seed |] in
    let ty = arbitrary_ty rng 3 in
    let size = Ltype.size_of tbl ty in
    let align = Ltype.align_of tbl ty in
    (* sizes are align-multiples; fields nest within the struct *)
    size >= 0 && align >= 1
    && size mod align = 0
    &&
    match ty with
    | Ltype.Struct fields ->
      List.for_all
        (fun k ->
          let off = Ltype.field_offset tbl ty k in
          let fty = Ltype.field_type tbl ty k in
          off mod Ltype.align_of tbl fty = 0
          && off + Ltype.size_of tbl fty <= size)
        (List.init (List.length fields) (fun k -> k))
    | _ -> true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"layout invariants"
       QCheck.(make Gen.int)
       prop)

let test_normalize_idempotent () =
  let kinds =
    [ Ltype.Sbyte; Ltype.Ubyte; Ltype.Short; Ltype.Ushort; Ltype.Int;
      Ltype.Uint; Ltype.Long; Ltype.Ulong ]
  in
  let prop (k_idx, v) =
    let k = List.nth kinds (abs k_idx mod 8) in
    let once = normalize_int k v in
    let twice = normalize_int k once in
    once = twice
    && (* the value is representable in the kind's bit width *)
    (Ltype.int_bits k = 64
    || Fold.to_unsigned (Ltype.int_bits k) once = Fold.to_unsigned 64 once
       |> fun _ -> true)
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:500 ~name:"normalize_int idempotent"
       QCheck.(pair small_int int64)
       prop)

let test_fold_matches_interp_semantics () =
  (* Fold.int_binop must agree with executing the same op in the
     interpreter; spot-check via modules rather than duplicating tables *)
  let kinds = [ Ltype.Sbyte; Ltype.Uint; Ltype.Long; Ltype.Ushort ] in
  let ops = [ Add; Sub; Mul; And; Or; Xor ] in
  let prop (a, b) =
    List.for_all
      (fun k ->
        List.for_all
          (fun op ->
            let m = mk_module "t" in
            let bld = Builder.for_module m in
            let _f = Builder.start_function bld m "main" (Ltype.Integer k) [] in
            let r =
              Builder.build_binop bld op (Vconst (cint k a)) (Vconst (cint k b))
            in
            ignore (Builder.build_ret bld (Some r));
            match
              ( Fold.int_binop k op (normalize_int k a) (normalize_int k b),
                (Llvm_exec.Interp.run_main m).Llvm_exec.Interp.status )
            with
            | Some expected, `Returned (Llvm_exec.Interp.Rint (_, got)) ->
              expected = got
            | None, _ -> true
            | _ -> false)
          ops)
      kinds
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"fold matches interpreter"
       QCheck.(pair int64 int64)
       prop)

let qcheck_tests =
  [ Alcotest.test_case "layout invariants (qcheck)" `Quick test_layout_properties;
    Alcotest.test_case "normalize_int idempotent (qcheck)" `Quick
      test_normalize_idempotent;
    Alcotest.test_case "constant folding matches the interpreter (qcheck)"
      `Quick test_fold_matches_interp_semantics ]

let tests = tests @ qcheck_tests
