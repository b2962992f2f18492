(* The plain-text representation (paper section 2.5).

   Printing is lossless with respect to the in-memory form: the parser in
   lib/asm accepts exactly this syntax and reconstructs an isomorphic
   module.  Unnamed values receive sequential slot names; named values are
   uniquified with a numeric suffix when two share a name. *)

open Ir

(* Per-function naming of instructions, arguments and blocks. *)
type namer = {
  names : (int, string) Hashtbl.t; (* value id -> printed name *)
  taken : (string, unit) Hashtbl.t;
  mutable counter : int;
}

let make_namer () =
  { names = Hashtbl.create 64; taken = Hashtbl.create 64; counter = 0 }

let fresh_name (n : namer) (base : string) =
  if base = "" then (
    let rec next () =
      let cand = string_of_int n.counter in
      n.counter <- n.counter + 1;
      if Hashtbl.mem n.taken cand then next () else cand
    in
    next ())
  else if not (Hashtbl.mem n.taken base) then base
  else
    let rec go k =
      let cand = Printf.sprintf "%s.%d" base k in
      if Hashtbl.mem n.taken cand then go (k + 1) else cand
    in
    go 1

let assign (n : namer) id base =
  let name = fresh_name n base in
  Hashtbl.replace n.names id name;
  Hashtbl.replace n.taken name ();
  name

(* Pre-assign names to all args, blocks and value-producing instructions
   of a function, in program order, so that forward references print the
   final name. *)
let name_function (f : func) : namer =
  let n = make_namer () in
  List.iter (fun a -> ignore (assign n a.aid a.aname)) f.fargs;
  List.iter
    (fun b ->
      ignore (assign n b.bid (if b.bname = "" then "bb" else b.bname));
      List.iter
        (fun i ->
          if i.ity <> Ltype.Void then ignore (assign n i.iid i.iname))
        b.instrs)
    f.fblocks;
  n

let lookup (n : namer) id =
  match Hashtbl.find_opt n.names id with
  | Some s -> s
  | None -> Printf.sprintf "?%d" id

(* -- Constants ----------------------------------------------------------- *)

let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%h" f

let rec pp_const fmt (c : const) =
  match c with
  | Cbool true -> Fmt.string fmt "true"
  | Cbool false -> Fmt.string fmt "false"
  | Cint (_, v) -> Fmt.pf fmt "%Ld" v
  | Cfloat (_, f) -> Fmt.string fmt (float_literal f)
  | Cnull _ -> Fmt.string fmt "null"
  | Cundef _ -> Fmt.string fmt "undef"
  | Czero _ -> Fmt.string fmt "zeroinitializer"
  | Carray (elt, elts) ->
    Fmt.pf fmt "[ %a ]"
      Fmt.(list ~sep:(any ", ") pp_typed_const)
      (List.map (fun e -> (elt, e)) elts)
  | Cstruct (ty, elts) ->
    let field_tys =
      match ty with Ltype.Struct fs -> fs | _ -> List.map (fun _ -> Ltype.Void) elts
    in
    Fmt.pf fmt "{ %a }"
      Fmt.(list ~sep:(any ", ") pp_typed_const)
      (List.combine field_tys elts)
  | Cgvar g -> Fmt.pf fmt "%%%s" g.gname
  | Cfunc f -> Fmt.pf fmt "%%%s" f.fname
  | Ccast (ty, c) -> Fmt.pf fmt "cast(%a to %a)" pp_typed_const
      (type_of_const_for_print c, c) Ltype.pp ty

and type_of_const_for_print c =
  (* Only used in contexts where Named resolution is unnecessary. *)
  let table = Ltype.create_table () in
  type_of_const table c

and pp_typed_const fmt ((ty, c) : Ltype.t * const) =
  Fmt.pf fmt "%a %a" Ltype.pp ty pp_const c

(* -- Operands ------------------------------------------------------------ *)

let pp_value (n : namer) fmt (v : value) =
  match v with
  | Vconst c -> pp_const fmt c
  | Vinstr i -> Fmt.pf fmt "%%%s" (lookup n i.iid)
  | Varg a -> Fmt.pf fmt "%%%s" (lookup n a.aid)
  | Vglobal g -> Fmt.pf fmt "%%%s" g.gname
  | Vfunc f -> Fmt.pf fmt "%%%s" f.fname
  | Vblock b -> Fmt.pf fmt "label %%%s" (lookup n b.bid)

let pp_typed_value table (n : namer) fmt (v : value) =
  match v with
  | Vblock _ -> pp_value n fmt v
  | _ -> Fmt.pf fmt "%a %a" Ltype.pp (type_of table v) (pp_value n) v

(* -- Instructions -------------------------------------------------------- *)

let pp_instr table (n : namer) fmt (i : instr) =
  let v = pp_value n in
  let tv = pp_typed_value table n in
  let result () =
    if i.ity <> Ltype.Void then Fmt.pf fmt "%%%s = " (lookup n i.iid)
  in
  match i.iop with
  | Ret ->
    if Array.length i.operands = 0 then Fmt.string fmt "ret void"
    else Fmt.pf fmt "ret %a" tv i.operands.(0)
  | Br ->
    if Array.length i.operands = 1 then Fmt.pf fmt "br %a" v i.operands.(0)
    else
      Fmt.pf fmt "br %a, %a, %a" tv i.operands.(0) v i.operands.(1) v
        i.operands.(2)
  | Switch ->
    Fmt.pf fmt "switch %a, %a [" tv i.operands.(0) v i.operands.(1);
    List.iter
      (fun (c, blk) ->
        Fmt.pf fmt " %a %a, label %%%s"
          Ltype.pp (type_of table i.operands.(0))
          pp_const c (lookup n blk.bid))
      (switch_cases i);
    Fmt.string fmt " ]"
  | Invoke ->
    result ();
    Fmt.pf fmt "invoke %a %a(%a) to %a unwind to %a" Ltype.pp i.ity v
      i.operands.(0)
      Fmt.(list ~sep:(any ", ") tv)
      (call_args i) v i.operands.(1) v i.operands.(2)
  | Unwind -> Fmt.string fmt "unwind"
  | (Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | SetEQ | SetNE
    | SetLT | SetGT | SetLE | SetGE) as op ->
    result ();
    Fmt.pf fmt "%s %a %a, %a" (opcode_name op) Ltype.pp
      (type_of table i.operands.(0))
      (pp_value n) i.operands.(0) (pp_value n) i.operands.(1)
  | Malloc | Alloca ->
    result ();
    let elt = match i.alloc_ty with Some t -> t | None -> Ltype.Void in
    Fmt.pf fmt "%s %a" (opcode_name i.iop) Ltype.pp elt;
    if Array.length i.operands > 0 then Fmt.pf fmt ", %a" tv i.operands.(0)
  | Free -> Fmt.pf fmt "free %a" tv i.operands.(0)
  | Load ->
    result ();
    Fmt.pf fmt "load %a" tv i.operands.(0)
  | Store ->
    Fmt.pf fmt "store %a, %a" tv i.operands.(0) tv i.operands.(1)
  | Gep ->
    result ();
    Fmt.pf fmt "getelementptr %a" tv i.operands.(0);
    Array.iteri
      (fun k op -> if k > 0 then Fmt.pf fmt ", %a" tv op)
      i.operands
  | Phi ->
    result ();
    Fmt.pf fmt "phi %a " Ltype.pp i.ity;
    let first = ref true in
    List.iter
      (fun (value, blk) ->
        if not !first then Fmt.string fmt ", ";
        first := false;
        Fmt.pf fmt "[ %a, %%%s ]" (pp_value n) value (lookup n blk.bid))
      (phi_incoming i)
  | Cast ->
    result ();
    Fmt.pf fmt "cast %a to %a" tv i.operands.(0) Ltype.pp i.ity
  | Call ->
    result ();
    Fmt.pf fmt "call %a %a(%a)" Ltype.pp i.ity v i.operands.(0)
      Fmt.(list ~sep:(any ", ") tv)
      (call_args i)
  | Select ->
    result ();
    Fmt.pf fmt "select %a, %a, %a" tv i.operands.(0) tv i.operands.(1) tv
      i.operands.(2)

(* -- Functions, globals, modules ------------------------------------------ *)

let pp_linkage fmt = function
  | Internal -> Fmt.string fmt "internal "
  | External -> Fmt.string fmt ""

let pp_func table fmt (f : func) =
  if is_declaration f then
    Fmt.pf fmt "declare %a %%%s(%a%s)@." Ltype.pp f.freturn f.fname
      Fmt.(list ~sep:(any ", ") Ltype.pp)
      (List.map (fun a -> a.aty) f.fargs)
      (if f.fvarargs then if f.fargs = [] then "..." else ", ..." else "")
  else begin
    let n = name_function f in
    Fmt.pf fmt "%a%a %%%s(%a%s) {@." pp_linkage f.flinkage Ltype.pp f.freturn
      f.fname
      Fmt.(
        list ~sep:(any ", ") (fun fmt a ->
            Fmt.pf fmt "%a %%%s" Ltype.pp a.aty (lookup n a.aid)))
      f.fargs
      (if f.fvarargs then if f.fargs = [] then "..." else ", ..." else "");
    List.iter
      (fun b ->
        Fmt.pf fmt "%s:@." (lookup n b.bid);
        List.iter (fun i -> Fmt.pf fmt "  %a@." (pp_instr table n) i) b.instrs)
      f.fblocks;
    Fmt.pf fmt "}@."
  end

let pp_gvar fmt (g : gvar) =
  let kind = if g.gconstant then "constant" else "global" in
  match g.ginit with
  | Some init ->
    Fmt.pf fmt "%%%s = %a%s %a@." g.gname pp_linkage g.glinkage kind
      pp_typed_const (g.gty, init)
  | None -> Fmt.pf fmt "%%%s = external %s %a@." g.gname kind Ltype.pp g.gty

let pp_module fmt (m : modul) =
  Fmt.pf fmt "; module %s@." m.mname;
  let types =
    Hashtbl.fold (fun name ty acc -> (name, ty) :: acc) m.mtypes []
    |> List.sort compare
  in
  List.iter (fun (name, ty) -> Fmt.pf fmt "%%%s = type %a@." name Ltype.pp ty) types;
  if types <> [] then Fmt.pf fmt "@.";
  List.iter (fun g -> pp_gvar fmt g) m.mglobals;
  if m.mglobals <> [] then Fmt.pf fmt "@.";
  List.iter (fun f -> Fmt.pf fmt "%a@." (pp_func m.mtypes) f) m.mfuncs

let module_to_string m = Fmt.str "%a" pp_module m
let func_to_string table f = Fmt.str "%a" (pp_func table) f
