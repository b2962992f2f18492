(* The verifier: the one check of the verified-module contract.

   Checks the invariants that every pass, and the engine, is allowed to
   assume:
   - every basic block ends in exactly one terminator, and terminators
     appear nowhere else;
   - phi instructions cluster at the head of their block and have exactly
     one incoming value per CFG predecessor;
   - every instruction has the operand count its opcode takes, with a
     basic block of the same function in each label slot (checked first:
     the checks below index operand arrays, read label slots and walk the
     CFG, so a function with a malformed instruction reports that and
     skips them);
   - operand types obey the instruction type rules (section 2.2), e.g.
     both operands of a binary op share the result type, stored values
     match the pointee type, comparisons yield bool;
   - every integer constant operand, bare or under a constant cast, has
     an integer type and holds that type's canonical value (what
     [Ir.cint] makes), so no value is wider than its type;
   - SSA dominance (section 2.1): in every block the entry reaches, each
     instruction operand is defined in a block that strictly dominates
     the use or earlier in the same block, and each phi's incoming value
     dominates the end of its edge;
   - every instruction's parent pointer is the block that lists it;
   - module-level names are unique;
   - every named type that is resolved is defined. *)

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

type shape_error = Arity of string | Label | Foreign_label

(* Does [v], in a label slot of function [f], hold a block of [f]? *)
let label_error (f : func) (v : value) =
  match v with
  | Vblock b -> (
    match b.bparent with Some g when g == f -> None | _ -> Some Foreign_label)
  | _ -> Some Label

let either a b = match a with None -> b | e -> e

(* Slots [k], [k + 2], ... hold blocks of [f]. *)
let rec labels_from f (ops : value array) k =
  if k >= Array.length ops then None
  else either (label_error f ops.(k)) (labels_from f ops (k + 2))

let arity ok what = if ok then None else Some (Arity what)

let shape_error (f : func) (i : instr) : shape_error option =
  let ops = i.operands in
  let n = Array.length ops in
  match i.iop with
  | Ret -> arity (n <= 1) "takes at most one operand"
  | Unwind -> arity (n = 0) "takes no operands"
  | Br ->
    if n = 1 then label_error f ops.(0)
    else if n = 3 then either (label_error f ops.(1)) (label_error f ops.(2))
    else arity false "takes 1 or 3 operands"
  | Switch ->
    if n < 2 || n mod 2 <> 0 then
      arity false "needs a default and value/label case pairs"
    else labels_from f ops 1
  | Invoke ->
    if n < 3 then arity false "needs a callee and two labels"
    else either (label_error f ops.(1)) (label_error f ops.(2))
  | Phi ->
    if n mod 2 <> 0 then arity false "needs value/label pairs"
    else labels_from f ops 1
  | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | SetEQ | SetNE
  | SetLT | SetGT | SetLE | SetGE | Store ->
    arity (n = 2) "takes 2 operands"
  | Select -> arity (n = 3) "takes 3 operands"
  | Free | Load | Cast -> arity (n = 1) "takes 1 operand"
  | Malloc | Alloca -> arity (n <= 1) "takes at most one count operand"
  | Gep -> arity (n >= 1) "needs a pointer operand"
  | Call -> arity (n >= 1) "needs a callee"

(* Report [i]'s shape error, if any. *)
let check_shape errors (f : func) (i : instr) =
  match shape_error f i with
  | None -> ()
  | Some e -> (
    let fail fmt = fail_at errors f.fname (fun () -> opcode_name i.iop) fmt in
    match e with
    | Arity what -> fail "%s, has %d operands" what (Array.length i.operands)
    | Label -> fail "label operand is not a basic block"
    | Foreign_label -> fail "label operand is a block of another function")

(* Check the shape of each of [instrs]; [n] plus their number. *)
let rec count_shaped errors f n (instrs : instr list) =
  match instrs with
  | [] -> n
  | i :: rest ->
    check_shape errors f i;
    count_shaped errors f (n + 1) rest

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

(* -- Block structure ------------------------------------------------------- *)

(* The last instruction is a terminator and no other one is: reported as
   the end of the block first, then the earlier terminators, latest
   first. *)
let rec check_terminators errors fname (b : block) (instrs : instr list) =
  match instrs with
  | [] -> ()
  | [ last ] ->
    if not (is_terminator last.iop) then
      fail_at errors fname
        (fun () -> b.bname)
        "block does not end in a terminator"
  | i :: rest ->
    check_terminators errors fname b rest;
    if is_terminator i.iop then
      fail_at errors fname
        (fun () -> b.bname)
        "terminator %s in middle of block" (opcode_name i.iop)

(* Phis first, then non-phis; true when [instrs] holds a phi. *)
let rec check_phi_order errors fname (b : block) nonphi has_phi
    (instrs : instr list) =
  match instrs with
  | [] -> has_phi
  | i :: rest ->
    if i.iop = Phi then begin
      if nonphi then
        fail_at errors fname (fun () -> b.bname) "phi after non-phi instruction";
      check_phi_order errors fname b nonphi true rest
    end
    else check_phi_order errors fname b true has_phi rest

(* Each phi covers exactly the predecessors. *)
let check_phi_preds errors fname (b : block) =
  let fail fmt = fail_at errors fname (fun () -> b.bname) fmt in
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
                fail "phi missing entry for predecessor %s" p.bname)
            preds
      end)
    b.instrs

(* Does the ret instruction [i] return [f]'s return type? *)
let ret_matches table (f : func) (i : instr) =
  match (Array.length i.operands, f.freturn) with
  | 0, Ltype.Void -> true
  | 1, t -> Ltype.equal table (Ir.type_of table i.operands.(0)) t
  | _ -> false

(* -- SSA dominance -----------------------------------------------------------

   Checked on the blocks the entry reaches, over the function's dominator
   tree and [seen], a position table of the instructions walked so far.
   The walk goes block by block in list order, so a definition in the
   user's own block precedes the use exactly when [seen] has it.
   Allocation-free on uses that pass. *)

(* Does [def] dominate a use in block [b] by the instruction the walk is
   at? *)
let dominates_use dom seen (def : instr) (b : block) =
  match def.iparent with
  | None -> false
  | Some db ->
    if db == b then Ids.Numbering.find seen def.iid >= 0
    else Dominance.strictly_dominates dom db b

let rec check_uses dom seen errors fname (b : block) (i : instr) k =
  if k < Array.length i.operands then begin
    (match i.operands.(k) with
    | Vinstr def when not (dominates_use dom seen def b) ->
      fail_at errors fname
        (fun () -> b.bname)
        "use of %%%s by %s is not dominated by its definition" def.iname
        (opcode_name i.iop)
    | _ -> ());
    check_uses dom seen errors fname b i (k + 1)
  end

(* A phi's incoming value must dominate the end of its edge: the
   predecessor block, when the entry reaches it. *)
let dominates_edge dom (def : instr) (pred : block) =
  (not (Dominance.is_reachable dom pred))
  ||
  match def.iparent with
  | Some db -> Dominance.dominates dom db pred
  | None -> false

let rec check_incoming dom errors fname (b : block) (i : instr) k =
  if k + 1 < Array.length i.operands then begin
    (match (i.operands.(k), i.operands.(k + 1)) with
    | Vinstr def, Vblock pred when not (dominates_edge dom def pred) ->
      fail_at errors fname
        (fun () -> b.bname)
        "phi %%%s: incoming %%%s from %%%s is not dominated by its definition"
        i.iname def.iname pred.bname
    | _ -> ());
    check_incoming dom errors fname b i (k + 2)
  end

(* One walk over [f]'s blocks after the shape check; a function with a
   malformed instruction reports only that. *)
let verify_func table errors (f : func) =
  let fname = f.fname in
  let before = !errors in
  let n = List.fold_left (fun n b -> count_shaped errors f n b.instrs) 0 f.fblocks in
  if is_declaration f || not (!errors == before) then ()
  else begin
    let dom = Dominance.compute f in
    let seen = Ids.Numbering.create n in
    (* reported after the blocks, as they concern the whole function *)
    let bad_rets = ref 0 in
    List.iter
      (fun b ->
        (match b.instrs with
        | [] -> fail_at errors fname (fun () -> b.bname) "empty basic block"
        | instrs -> check_terminators errors fname b instrs);
        if check_phi_order errors fname b false false b.instrs then
          check_phi_preds errors fname b;
        let reachable = Dominance.is_reachable dom b in
        List.iter
          (fun i ->
            (match i.iparent with
            | Some p when p == b -> ()
            | _ ->
              fail_at errors fname
                (fun () -> b.bname)
                "instruction with stale parent pointer");
            check_types table errors fname i;
            check_consts table errors fname i 0;
            (if reachable then
               if i.iop = Phi then check_incoming dom errors fname b i 0
               else check_uses dom seen errors fname b i 0);
            ignore (Ids.Numbering.add seen i.iid);
            if i.iop = Ret && not (ret_matches table f i) then incr bad_rets)
          b.instrs)
      f.fblocks;
    for _ = 1 to !bad_rets do
      errors :=
        err fname "ret does not match return type %s"
          (Ltype.to_string f.freturn)
        :: !errors
    done
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
