(* A positioned instruction builder, the primary construction API.

   The builder holds an insertion point (a basic block) and appends
   instructions to it.  Each [build_*] helper computes the result type of
   the instruction from its operands, so front-ends only supply types
   where the instruction set genuinely requires one (cast targets,
   allocation element types). *)

open Ir

type t = {
  mutable where : block option;
  table : Ltype.table; (* for resolving named types in geps *)
}

let create ?(table : Ltype.table option) () =
  { where = None;
    table = (match table with Some t -> t | None -> Ltype.create_table ()) }

let for_module (m : modul) = { where = None; table = m.mtypes }

let position_at_end (b : t) (blk : block) = b.where <- Some blk

let insertion_block (b : t) =
  match b.where with
  | Some blk -> blk
  | None -> invalid_arg "Builder: no insertion point set"

let insert (b : t) (i : instr) =
  append_instr (insertion_block b) i;
  i

let ty_of (b : t) v = Ir.type_of b.table v

(* -- Binary operations -------------------------------------------------- *)

let build_binop (b : t) op ?(name = "") lhs rhs =
  let ty = ty_of b lhs in
  instr_value (insert b (mk_instr ~name ~ty op [ lhs; rhs ]))

let build_add b ?name l r = build_binop b Add ?name l r
let build_sub b ?name l r = build_binop b Sub ?name l r
let build_mul b ?name l r = build_binop b Mul ?name l r
let build_div b ?name l r = build_binop b Div ?name l r
let build_rem b ?name l r = build_binop b Rem ?name l r
let build_and b ?name l r = build_binop b And ?name l r
let build_or b ?name l r = build_binop b Or ?name l r
let build_xor b ?name l r = build_binop b Xor ?name l r
let build_shl b ?name l r = build_binop b Shl ?name l r
let build_shr b ?name l r = build_binop b Shr ?name l r

let build_cmp (b : t) op ?(name = "") lhs rhs =
  instr_value (insert b (mk_instr ~name ~ty:Ltype.Bool op [ lhs; rhs ]))

let build_seteq b ?name l r = build_cmp b SetEQ ?name l r
let build_setne b ?name l r = build_cmp b SetNE ?name l r
let build_setlt b ?name l r = build_cmp b SetLT ?name l r
let build_setgt b ?name l r = build_cmp b SetGT ?name l r
let build_setle b ?name l r = build_cmp b SetLE ?name l r
let build_setge b ?name l r = build_cmp b SetGE ?name l r

(* "not" and "neg" are pseudo-instructions (paper footnote 3). *)
let build_not b ?name v =
  let ty = ty_of b v in
  let all_ones =
    match ty with
    | Ltype.Bool -> Vconst (Cbool true)
    | Ltype.Integer k -> Vconst (cint k (-1L))
    | _ -> invalid_arg "build_not: not an integer type"
  in
  build_xor b ?name v all_ones

let build_neg b ?name v =
  let ty = ty_of b v in
  let zero =
    match ty with
    | Ltype.Integer k -> Vconst (cint k 0L)
    | Ltype.Float | Ltype.Double -> Vconst (Cfloat (ty, 0.0))
    | _ -> invalid_arg "build_neg: not an arithmetic type"
  in
  build_sub b ?name zero v

(* -- Memory ------------------------------------------------------------- *)

let build_alloca (b : t) ?(name = "") ?count elt_ty =
  let ops = match count with Some c -> [ c ] | None -> [] in
  instr_value
    (insert b
       (mk_instr ~name ~alloc_ty:elt_ty ~ty:(Ltype.Pointer elt_ty) Alloca ops))

let build_malloc (b : t) ?(name = "") ?count elt_ty =
  let ops = match count with Some c -> [ c ] | None -> [] in
  instr_value
    (insert b
       (mk_instr ~name ~alloc_ty:elt_ty ~ty:(Ltype.Pointer elt_ty) Malloc ops))

let build_free (b : t) ptr =
  instr_value (insert b (mk_instr ~ty:Ltype.Void Free [ ptr ]))

let build_load (b : t) ?(name = "") ptr =
  let ty =
    match Ltype.resolve b.table (ty_of b ptr) with
    | Ltype.Pointer t -> t
    | t -> invalid_arg (Fmt.str "build_load: pointer required, got %a" Ltype.pp t)
  in
  instr_value (insert b (mk_instr ~name ~ty Load [ ptr ]))

let build_store (b : t) v ptr =
  instr_value (insert b (mk_instr ~ty:Ltype.Void Store [ v; ptr ]))

(* The type navigated to by a getelementptr index list (section 2.2). *)
let gep_result_type table ptr_ty indices =
  let rec go ty = function
    | [] -> ty
    | idx :: rest -> (
      match Ltype.resolve table ty with
      | Ltype.Array (_, elt) -> go elt rest
      | Ltype.Struct _ as s -> (
        match idx with
        | Vconst (Cint (_, n)) -> go (Ltype.field_type table s (Int64.to_int n)) rest
        | Vconst (Cbool _) | _ ->
          invalid_arg "gep: struct index must be a constant integer")
      | t -> invalid_arg (Fmt.str "gep: cannot index into %a" Ltype.pp t))
  in
  match Ltype.resolve table ptr_ty with
  | Ltype.Pointer pointee -> (
    (* The first index steps over the pointer itself. *)
    match indices with
    | [] -> invalid_arg "gep: at least one index required"
    | _ :: rest -> Ltype.Pointer (go pointee rest))
  | t -> invalid_arg (Fmt.str "gep: pointer required, got %a" Ltype.pp t)

(* The indices past the pointer step that select an array element, each
   with the array's length.  The walk stops at the first index it cannot
   step through, which only happens on geps the verifier rejects. *)
let gep_array_indices table (g : instr) : (value * int) list =
  let rec go ty k acc =
    if k >= Array.length g.operands then acc
    else
      match (Ltype.resolve table ty, g.operands.(k)) with
      | Ltype.Array (n, elt), idx -> go elt (k + 1) ((idx, n) :: acc)
      | (Ltype.Struct _ as s), Vconst (Cint (_, v)) -> (
        match Ltype.field_type table s (Int64.to_int v) with
        | fty -> go fty (k + 1) acc
        | exception Invalid_argument _ -> acc)
      | _ -> acc
      | exception Ltype.Unresolved _ -> acc
  in
  match Ltype.resolve table (Ir.type_of table g.operands.(0)) with
  | Ltype.Pointer pointee -> List.rev (go pointee 2 [])
  | _ | (exception Ltype.Unresolved _) -> []

let build_gep (b : t) ?(name = "") ptr indices =
  let ty = gep_result_type b.table (ty_of b ptr) indices in
  instr_value (insert b (mk_instr ~name ~ty Gep (ptr :: indices)))

(* Convenience: gep with all-constant indices given as ints; the first
   index uses long, struct field indices use ubyte as in the paper. *)
let build_gep_const (b : t) ?name ptr (indices : int list) =
  let rec conv ty = function
    | [] -> []
    | i :: rest -> (
      match Ltype.resolve b.table ty with
      | Ltype.Array (_, elt) -> Vconst (cint Long (Int64.of_int i)) :: conv elt rest
      | Ltype.Struct _ as s ->
        Vconst (cint Ubyte (Int64.of_int i))
        :: conv (Ltype.field_type b.table s i) rest
      | t -> invalid_arg (Fmt.str "gep: cannot index into %a" Ltype.pp t))
  in
  match (Ltype.resolve b.table (ty_of b ptr), indices) with
  | Ltype.Pointer pointee, first :: rest ->
    build_gep b ?name ptr
      (Vconst (cint Long (Int64.of_int first)) :: conv pointee rest)
  | _ -> invalid_arg "build_gep_const: pointer and nonempty indices required"

(* -- Other -------------------------------------------------------------- *)

let build_cast (b : t) ?(name = "") v target_ty =
  instr_value (insert b (mk_instr ~name ~ty:target_ty Cast [ v ]))

let build_select (b : t) ?(name = "") cond iftrue iffalse =
  let ty = ty_of b iftrue in
  instr_value (insert b (mk_instr ~name ~ty Select [ cond; iftrue; iffalse ]))

let build_phi (b : t) ?(name = "") ty incoming =
  let ops = List.concat_map (fun (v, blk) -> [ v; Vblock blk ]) incoming in
  let i = mk_instr ~name ~ty Phi ops in
  (* Phis must cluster at the top of the block. *)
  prepend_instr (insertion_block b) i;
  i.iparent <- Some (insertion_block b);
  instr_value i

let return_type_of_callee (b : t) callee =
  match Ltype.resolve b.table (ty_of b callee) with
  | Ltype.Pointer fn_ty | (Ltype.Function _ as fn_ty) -> (
    match Ltype.resolve b.table fn_ty with
    | Ltype.Function (ret, _, _) -> ret
    | t -> invalid_arg (Fmt.str "call: callee is not a function: %a" Ltype.pp t))
  | t -> invalid_arg (Fmt.str "call: callee is not a function: %a" Ltype.pp t)

let build_call (b : t) ?(name = "") callee args =
  let ret = return_type_of_callee b callee in
  instr_value (insert b (mk_instr ~name ~ty:ret Call (callee :: args)))

(* -- Terminators -------------------------------------------------------- *)

let build_ret (b : t) v =
  let ops = match v with Some v -> [ v ] | None -> [] in
  instr_value (insert b (mk_instr ~ty:Ltype.Void Ret ops))

let build_br (b : t) dest =
  instr_value (insert b (mk_instr ~ty:Ltype.Void Br [ Vblock dest ]))

let build_condbr (b : t) cond iftrue iffalse =
  instr_value
    (insert b (mk_instr ~ty:Ltype.Void Br [ cond; Vblock iftrue; Vblock iffalse ]))

let build_switch (b : t) v default cases =
  let ops =
    v :: Vblock default
    :: List.concat_map (fun (c, blk) -> [ Vconst c; Vblock blk ]) cases
  in
  instr_value (insert b (mk_instr ~ty:Ltype.Void Switch ops))

let build_invoke (b : t) ?(name = "") callee args ~normal ~unwind =
  let ret = return_type_of_callee b callee in
  instr_value
    (insert b
       (mk_instr ~name ~ty:ret Invoke
          ((callee :: Vblock normal :: Vblock unwind :: args))))

let build_unwind (b : t) =
  instr_value (insert b (mk_instr ~ty:Ltype.Void Unwind []))

(* -- Function scaffolding ----------------------------------------------- *)

(* Create a function with an entry block and position the builder there. *)
let start_function (b : t) (m : modul) ?(linkage = Internal) ?(varargs = false)
    name return params =
  let f = mk_func ~linkage ~varargs ~name ~return ~params () in
  add_func m f;
  let entry = mk_block ~name:"entry" () in
  append_block f entry;
  position_at_end b entry;
  f

let append_new_block (_b : t) (f : func) name =
  let blk = mk_block ~name () in
  append_block f blk;
  blk
