(* Structural verifier for the in-memory representation.

   Checks the invariants that every pass is allowed to assume:
   - every basic block ends in exactly one terminator, and terminators
     appear nowhere else;
   - phi instructions cluster at the head of their block and have exactly
     one incoming value per CFG predecessor;
   - every instruction has the operand count its opcode takes, with a
     basic block in each label slot (checked first: the checks below
     index operand arrays and read label slots, so a function with a
     malformed instruction reports that and skips them);
   - operand types obey the instruction type rules (section 2.2), e.g.
     both operands of a binary op share the result type, stored values
     match the pointee type, comparisons yield bool;
   - every integer constant operand, bare or under a constant cast, has
     an integer type and holds that type's canonical value (what
     [Ir.cint] makes), so no value is wider than its type;
   - use-lists are consistent with operand arrays;
   - module-level names are unique;
   - every named type that is resolved is defined.

   SSA dominance ("each use dominated by its definition") requires a
   dominator tree and is checked by [Llvm_analysis.Ssa_check]. *)

open Ir

type error = { where : string; what : string }

let err where fmt = Fmt.kstr (fun what -> { where; what }) fmt

(* Report a violation at [fname/part].  The location string is built
   only when something fails: every request verifies at least once, and
   almost every instruction and block passes. *)
let fail_at errors fname part fmt =
  Fmt.kstr
    (fun what ->
      errors := { where = Printf.sprintf "%s/%s" fname (part ()); what } :: !errors)
    fmt

(* -- Operand shape -------------------------------------------------------

   The operand layout of each opcode (see [Ir]): how many operands it
   takes and which slots hold basic blocks.  Checked allocation-free,
   before anything indexes an operand array or reads a label slot. *)

type shape_error = Arity of string | Label

let is_label = function Vblock _ -> true | _ -> false

(* Slots [k], [k + 2], ... hold basic blocks. *)
let rec labels_from (ops : value array) k =
  k >= Array.length ops || (is_label ops.(k) && labels_from ops (k + 2))

let arity ok what = if ok then None else Some (Arity what)
let labels ok = if ok then None else Some Label

let shape_error (i : instr) : shape_error option =
  let ops = i.operands in
  let n = Array.length ops in
  match i.iop with
  | Ret -> arity (n <= 1) "takes at most one operand"
  | Unwind -> arity (n = 0) "takes no operands"
  | Br ->
    if n = 1 then labels (is_label ops.(0))
    else if n = 3 then labels (is_label ops.(1) && is_label ops.(2))
    else arity false "takes 1 or 3 operands"
  | Switch ->
    if n < 2 || n mod 2 <> 0 then
      arity false "needs a default and value/label case pairs"
    else labels (labels_from ops 1)
  | Invoke ->
    if n < 3 then arity false "needs a callee and two labels"
    else labels (is_label ops.(1) && is_label ops.(2))
  | Phi ->
    if n mod 2 <> 0 then arity false "needs value/label pairs"
    else labels (labels_from ops 1)
  | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | SetEQ | SetNE
  | SetLT | SetGT | SetLE | SetGE | Store ->
    arity (n = 2) "takes 2 operands"
  | Select -> arity (n = 3) "takes 3 operands"
  | Free | Load | Cast -> arity (n = 1) "takes 1 operand"
  | Malloc | Alloca -> arity (n <= 1) "takes at most one count operand"
  | Gep -> arity (n >= 1) "needs a pointer operand"
  | Call -> arity (n >= 1) "needs a callee"

(* Report [i]'s shape error, if any; false when there was one. *)
let check_shape errors (fname : string) (i : instr) : bool =
  match shape_error i with
  | None -> true
  | Some e ->
    let fail fmt = fail_at errors fname (fun () -> opcode_name i.iop) fmt in
    (match e with
    | Arity what -> fail "%s, has %d operands" what (Array.length i.operands)
    | Label -> fail "label operand is not a basic block");
    false

let check_types table errors (fname : string) (i : instr) =
  let fail fmt = fail_at errors fname (fun () -> opcode_name i.iop) fmt in
  let ty v = Ir.type_of table v in
  let eq a b = Ltype.equal table a b in
  match i.iop with
  | (Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr) ->
    if not (eq (ty i.operands.(0)) (ty i.operands.(1))) then
      fail "binary operands disagree: %a vs %a" Ltype.pp
        (ty i.operands.(0)) Ltype.pp (ty i.operands.(1));
    if not (eq i.ity (ty i.operands.(0))) then
      fail "result type %a differs from operand type %a" Ltype.pp
        i.ity Ltype.pp (ty i.operands.(0))
  | SetEQ | SetNE | SetLT | SetGT | SetLE | SetGE ->
    if not (eq (ty i.operands.(0)) (ty i.operands.(1))) then
      fail "comparison operands disagree";
    if i.ity <> Ltype.Bool then fail "comparison must yield bool"
  | Load -> (
    match Ltype.resolve table (ty i.operands.(0)) with
    | Ltype.Pointer p ->
      if not (eq p i.ity) then
        fail "load result %a does not match pointee %a" Ltype.pp
          i.ity Ltype.pp p
    | t -> fail "load from non-pointer %a" Ltype.pp t)
  | Store -> (
    match Ltype.resolve table (ty i.operands.(1)) with
    | Ltype.Pointer p ->
      if not (eq p (ty i.operands.(0))) then
        fail "stored value %a does not match pointee %a" Ltype.pp
          (ty i.operands.(0)) Ltype.pp p
    | t -> fail "store to non-pointer %a" Ltype.pp t)
  | Gep -> (
    try
      let expect =
        Builder.gep_result_type table (ty i.operands.(0))
          (Array.to_list (Array.sub i.operands 1 (Array.length i.operands - 1)))
      in
      if not (eq expect i.ity) then
        fail "gep result %a should be %a" Ltype.pp i.ity Ltype.pp expect
    with Invalid_argument msg -> fail "%s" msg)
  | Select ->
    if ty i.operands.(0) <> Ltype.Bool then
      fail "select condition must be bool";
    if not (eq (ty i.operands.(1)) (ty i.operands.(2))) then
      fail "select arms disagree"
  | Br ->
    if Array.length i.operands = 3 && ty i.operands.(0) <> Ltype.Bool then
      fail "conditional branch needs a bool condition"
  | Call | Invoke -> (
    match Ltype.resolve table (ty (call_callee i)) with
    | Ltype.Pointer fty -> (
      match Ltype.resolve table fty with
      | Ltype.Function (ret, params, varargs) ->
        if not (eq ret i.ity) then
          fail "call result %a does not match return %a" Ltype.pp
            i.ity Ltype.pp ret;
        let args = call_args i in
        let nparams = List.length params and nargs = List.length args in
        if nargs < nparams || ((not varargs) && nargs > nparams) then
          fail "arity mismatch: %d args for %d params" nargs nparams;
        List.iteri
          (fun k param ->
            match List.nth_opt args k with
            | Some a when not (eq (ty a) param) ->
              fail "argument %d has type %a, expected %a" k Ltype.pp
                (ty a) Ltype.pp param
            | _ -> ())
          params
      | t -> fail "callee is not a function: %a" Ltype.pp t)
    | t -> fail "callee is not a function pointer: %a" Ltype.pp t)
  | Phi ->
    List.iter
      (fun (v, _) ->
        if not (eq (ty v) i.ity) then
          fail "phi incoming %a does not match %a" Ltype.pp (ty v)
            Ltype.pp i.ity)
      (phi_incoming i)
  | Cast ->
    if not (Ltype.is_first_class i.ity) && i.ity <> Ltype.Void then
      fail "cast target must be first-class"
  | Switch ->
    let cond_ty = Ltype.resolve table (ty i.operands.(0)) in
    (match cond_ty with
    | Ltype.Integer _ | Ltype.Bool -> ()
    | t -> fail "switch condition must be an integer, got %a"
             Ltype.pp t);
    Array.iteri
      (fun k v ->
        if k >= 2 && k mod 2 = 0 then (
          (match v with
          | Vconst _ -> ()
          | _ -> fail "switch case %d is not a constant" (k / 2 - 1));
          if not (eq (ty v) cond_ty) then
            fail "switch case %d has type %a, condition is %a" (k / 2 - 1)
              Ltype.pp (ty v) Ltype.pp cond_ty))
      i.operands
  | Free -> (
    match Ltype.resolve table (ty i.operands.(0)) with
    | Ltype.Pointer _ -> ()
    | t -> fail "free of non-pointer %a" Ltype.pp t)
  | Malloc | Alloca -> (
    (match i.alloc_ty with
    | None -> fail "%s without an allocated type" (opcode_name i.iop)
    | Some elt ->
      if not (eq i.ity (Ltype.Pointer elt)) then
        fail "%s of %a must produce %a, got %a" (opcode_name i.iop)
          Ltype.pp elt Ltype.pp (Ltype.Pointer elt) Ltype.pp i.ity);
    match i.operands with
    | [| count |] -> (
      match Ltype.resolve table (ty count) with
      | Ltype.Integer _ -> ()
      | t -> fail "allocation count must be an integer, got %a"
               Ltype.pp t)
    | _ -> ())
  | Ret | Unwind -> ()

(* -- Integer constants -----------------------------------------------------

   Checked on every operand of every instruction, so allocation-free on
   constants that pass: no [Ltype.resolve], no closures. *)

(* Is [v] the canonical value of kind [k], the one [Ir.normalize_int]
   makes: in the kind's signed or unsigned range? *)
let canonical_int (k : Ltype.int_kind) (v : int64) =
  match k with
  | Ltype.Sbyte -> v >= -0x80L && v < 0x80L
  | Ltype.Ubyte -> v >= 0L && v < 0x100L
  | Ltype.Short -> v >= -0x8000L && v < 0x8000L
  | Ltype.Ushort -> v >= 0L && v < 0x1_0000L
  | Ltype.Int -> v >= -0x8000_0000L && v < 0x8000_0000L
  | Ltype.Uint -> v >= 0L && v < 0x1_0000_0000L
  | Ltype.Long | Ltype.Ulong -> true

let rec canonical_const = function
  | Cint (Ltype.Integer k, v) -> canonical_int k v
  | Cint _ -> false
  | Ccast (_, c) -> canonical_const c
  | _ -> true

let rec check_consts table errors fname (i : instr) k =
  if k < Array.length i.operands then begin
    (match i.operands.(k) with
    | Vconst c when not (canonical_const c) ->
      fail_at errors fname
        (fun () -> opcode_name i.iop)
        "constant %a is not a canonical integer of its type" Printer.pp_typed_const
        (type_of_const table c, c)
    | _ -> ());
    check_consts table errors fname i (k + 1)
  end

(* Check the shape of each of [instrs]; false when any is malformed. *)
let rec well_shaped errors fname ok (instrs : instr list) =
  match instrs with
  | [] -> ok
  | i :: rest ->
    well_shaped errors fname (check_shape errors fname i && ok) rest

let verify_func table errors (f : func) =
  let push e = errors := e :: !errors in
  let fname = f.fname in
  let shaped =
    List.fold_left (fun ok b -> well_shaped errors fname ok b.instrs) true
      f.fblocks
  in
  if is_declaration f || not shaped then ()
  else begin
    List.iter
      (fun b ->
        let fail fmt = fail_at errors fname (fun () -> b.bname) fmt in
        (match List.rev b.instrs with
        | [] -> fail "empty basic block"
        | last :: before ->
          if not (is_terminator last.iop) then
            fail "block does not end in a terminator";
          List.iter
            (fun i ->
              if is_terminator i.iop then
                fail "terminator %s in middle of block"
                  (opcode_name i.iop))
            before);
        (* Phis first, then non-phis. *)
        let seen_nonphi = ref false in
        List.iter
          (fun i ->
            if i.iop = Phi then begin
              if !seen_nonphi then fail "phi after non-phi instruction"
            end
            else seen_nonphi := true)
          b.instrs;
        (* Each phi covers exactly the predecessors. *)
        let preds = predecessors b in
        List.iter
          (fun i ->
            if i.iop = Phi then begin
              let incoming = List.map snd (phi_incoming i) in
              if List.length incoming <> List.length preds then
                fail "phi has %d entries for %d predecessors"
                  (List.length incoming) (List.length preds)
              else
                List.iter
                  (fun p ->
                    if not (List.exists (fun q -> q == p) incoming) then
                      fail "phi missing entry for predecessor %s"
                        p.bname)
                  preds
            end)
          b.instrs;
        (* Parent pointers and use-list sanity. *)
        List.iter
          (fun i ->
            (match i.iparent with
            | Some p when p == b -> ()
            | _ -> fail "instruction with stale parent pointer");
            check_types table errors fname i;
            check_consts table errors fname i 0)
          b.instrs)
      f.fblocks;
    (* Returns must match the function's return type. *)
    iter_instrs
      (fun i ->
        if i.iop = Ret then
          let ok =
            match (Array.length i.operands, f.freturn) with
            | 0, Ltype.Void -> true
            | 1, t -> Ltype.equal table (Ir.type_of table i.operands.(0)) t
            | _ -> false
          in
          if not ok then
            push (err fname "ret does not match return type %s"
                    (Ltype.to_string f.freturn)))
      f
  end

let verify_module (m : modul) : error list =
  let errors = ref [] in
  let push e = errors := e :: !errors in
  let names = Hashtbl.create 64 in
  let check_unique kind name =
    if Hashtbl.mem names name then
      push (err m.mname "duplicate %s name %%%s" kind name)
    else Hashtbl.add names name ()
  in
  List.iter (fun g -> check_unique "global" g.gname) m.mglobals;
  List.iter (fun f -> check_unique "function" f.fname) m.mfuncs;
  List.iter
    (fun f ->
      try verify_func m.mtypes errors f
      with Ltype.Unresolved n -> push (err f.fname "undefined type %%%s" n))
    m.mfuncs;
  List.rev !errors

let pp_error fmt e = Fmt.pf fmt "%s: %s" e.where e.what

exception Invalid_module of string

(* Raise when the module is malformed; for use in tests and tools. *)
let assert_valid (m : modul) =
  match verify_module m with
  | [] -> ()
  | errs ->
    let msg = String.concat "\n" (List.map (fun e -> Fmt.str "%a" pp_error e) errs) in
    raise (Invalid_module msg)
