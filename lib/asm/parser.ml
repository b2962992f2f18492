(* Recursive-descent parser for the plain-text representation.

   Parsing is two-pass so that forward references resolve without
   placeholder values escaping:
   - pass 1 registers named types, global variables and function
     signatures, remembering the token offset of every global initializer
     and function body;
   - pass 2 revisits those offsets and parses initializers and bodies with
     the complete module-level symbol table in scope.

   Within a function body, a register or label may be used before it is
   defined (phis, loop back-edges): operands that cannot be resolved yet
   are recorded and patched once the whole body has been read. *)

open Llvm_ir
open Ir
open Lexer

exception Parse_error of string * int

type state = {
  toks : Lexer.t array;
  mutable pos : int;
  m : modul;
}

let error st msg =
  let line = if st.pos < Array.length st.toks then st.toks.(st.pos).line else 0 in
  raise (Parse_error (msg, line))

let peek st = st.toks.(st.pos).tok
let peek2 st =
  if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1).tok else Teof

let next st =
  let t = st.toks.(st.pos).tok in
  if t <> Teof then st.pos <- st.pos + 1;
  t

let expect st tok what =
  let t = next st in
  if t <> tok then
    error st (Printf.sprintf "expected %s, found %s" what (token_to_string t))

let expect_ident st what =
  match next st with
  | Tident s -> s
  | t -> error st (Printf.sprintf "expected %s, found %s" what (token_to_string t))

let expect_pident st what =
  match next st with
  | Tpercent_ident s -> s
  | t -> error st (Printf.sprintf "expected %s, found %s" what (token_to_string t))

(* -- Types --------------------------------------------------------------- *)

let int_kind_of_name = function
  | "sbyte" -> Some Ltype.Sbyte
  | "ubyte" -> Some Ltype.Ubyte
  | "short" -> Some Ltype.Short
  | "ushort" -> Some Ltype.Ushort
  | "int" -> Some Ltype.Int
  | "uint" -> Some Ltype.Uint
  | "long" -> Some Ltype.Long
  | "ulong" -> Some Ltype.Ulong
  | _ -> None

let _starts_type = function
  | Tident ("void" | "bool" | "float" | "double") -> true
  | Tident name ->
    int_kind_of_name name <> None
    || String.length name > 7 && String.sub name 0 7 = "opaque."
  | Tpercent_ident _ | Tlbrace | Tlbracket -> true
  | _ -> false

let rec parse_type st : Ltype.t =
  let base =
    match next st with
    | Tident "void" -> Ltype.Void
    | Tident "bool" -> Ltype.Bool
    | Tident "float" -> Ltype.Float
    | Tident "double" -> Ltype.Double
    | Tident name -> (
      match int_kind_of_name name with
      | Some k -> Ltype.Integer k
      | None ->
        if String.length name > 7 && String.sub name 0 7 = "opaque." then
          Ltype.Opaque (String.sub name 7 (String.length name - 7))
        else error st ("unknown type name " ^ name))
    | Tpercent_ident n -> Ltype.Named n
    | Tlbrace ->
      if peek st = Trbrace then (ignore (next st); Ltype.Struct [])
      else begin
        let fields = ref [ parse_type st ] in
        while peek st = Tcomma do
          ignore (next st);
          fields := parse_type st :: !fields
        done;
        expect st Trbrace "'}'";
        Ltype.Struct (List.rev !fields)
      end
    | Tlbracket ->
      let n =
        match next st with
        | Tint v -> Int64.to_int v
        | t -> error st ("expected array length, found " ^ token_to_string t)
      in
      (match next st with
      | Tident "x" -> ()
      | t -> error st ("expected 'x', found " ^ token_to_string t));
      let elt = parse_type st in
      expect st Trbracket "']'";
      Ltype.Array (n, elt)
    | t -> error st ("expected a type, found " ^ token_to_string t)
  in
  parse_type_suffix st base

and parse_type_suffix st base =
  match peek st with
  | Tstar ->
    ignore (next st);
    parse_type_suffix st (Ltype.Pointer base)
  | Tlparen ->
    ignore (next st);
    let params = ref [] in
    let varargs = ref false in
    let rec go () =
      match peek st with
      | Trparen -> ignore (next st)
      | Tellipsis ->
        ignore (next st);
        varargs := true;
        expect st Trparen "')'"
      | _ ->
        params := parse_type st :: !params;
        (match peek st with
        | Tcomma -> ignore (next st); go ()
        | _ -> expect st Trparen "')'")
    in
    go ();
    parse_type_suffix st (Ltype.Function (base, List.rev !params, !varargs))
  | _ -> base

(* -- Constants ------------------------------------------------------------ *)

let resolve_ty st ty =
  try Ltype.resolve st.m.mtypes ty
  with Ltype.Unresolved n -> error st ("unresolved type name %" ^ n)

let rec parse_const st (ty : Ltype.t) : const =
  match peek st with
  | Tint v -> (
    ignore (next st);
    match resolve_ty st ty with
    | Ltype.Integer k -> cint k v
    | Ltype.Bool -> Cbool (v <> 0L)
    | Ltype.Float | Ltype.Double -> Cfloat (ty, Int64.to_float v)
    | t -> error st (Fmt.str "integer literal for non-integer type %a" Ltype.pp t))
  | Tfloat f -> ignore (next st); Cfloat (ty, f)
  | Tident "true" -> ignore (next st); Cbool true
  | Tident "false" -> ignore (next st); Cbool false
  | Tident ("infinity" | "inf") -> ignore (next st); Cfloat (ty, Float.infinity)
  | Tident "nan" -> ignore (next st); Cfloat (ty, Float.nan)
  | Tident "null" -> ignore (next st); Cnull ty
  | Tident "undef" -> ignore (next st); Cundef ty
  | Tident "zeroinitializer" -> ignore (next st); Czero ty
  | Tident "cast" ->
    ignore (next st);
    expect st Tlparen "'('";
    let src_ty = parse_type st in
    let c = parse_const st src_ty in
    (match next st with
    | Tident "to" -> ()
    | t -> error st ("expected 'to', found " ^ token_to_string t));
    let target = parse_type st in
    expect st Trparen "')'";
    Ccast (target, c)
  | Tstring s -> (
    ignore (next st);
    match resolve_ty st ty with
    | Ltype.Array (_, (Ltype.Integer k as elt)) ->
      Carray
        ( elt,
          List.map (fun c -> cint k (Int64.of_int (Char.code c)))
            (List.init (String.length s) (String.get s)) )
    | t -> error st (Fmt.str "string literal for non-byte-array type %a" Ltype.pp t))
  | Tlbracket ->
    ignore (next st);
    let elt_ty =
      match resolve_ty st ty with
      | Ltype.Array (_, e) -> e
      | t -> error st (Fmt.str "array literal for non-array type %a" Ltype.pp t)
    in
    let elts = ref [] in
    if peek st = Trbracket then ignore (next st)
    else begin
      let rec go () =
        let ety = parse_type st in
        elts := parse_const st ety :: !elts;
        match peek st with
        | Tcomma -> ignore (next st); go ()
        | _ -> expect st Trbracket "']'"
      in
      go ()
    end;
    Carray (elt_ty, List.rev !elts)
  | Tlbrace ->
    ignore (next st);
    let struct_ty = resolve_ty st ty in
    (match struct_ty with
    | Ltype.Struct _ -> ()
    | t -> error st (Fmt.str "struct literal for non-struct type %a" Ltype.pp t));
    let elts = ref [] in
    if peek st = Trbrace then ignore (next st)
    else begin
      let rec go () =
        let ety = parse_type st in
        elts := parse_const st ety :: !elts;
        match peek st with
        | Tcomma -> ignore (next st); go ()
        | _ -> expect st Trbrace "'}'"
      in
      go ()
    end;
    Cstruct (struct_ty, List.rev !elts)
  | Tpercent_ident name -> (
    ignore (next st);
    match find_gvar st.m name with
    | Some g -> Cgvar g
    | None -> (
      match find_func st.m name with
      | Some f -> Cfunc f
      | None -> error st ("unknown global %" ^ name)))
  | t -> error st ("expected a constant, found " ^ token_to_string t)

(* Skip over a constant without interpreting it (pass 1). *)
let rec skip_const st =
  match next st with
  | Tlbracket | Tlbrace | Tlparen ->
    let depth = ref 1 in
    while !depth > 0 do
      match next st with
      | Tlbracket | Tlbrace | Tlparen -> incr depth
      | Trbracket | Trbrace | Trparen -> decr depth
      | Teof -> error st "unterminated aggregate constant"
      | _ -> ()
    done
  | Tident "cast" -> skip_const st (* the parenthesized body *)
  | Tint _ | Tfloat _ | Tident _ | Tpercent_ident _ | Tstring _ -> ()
  | t -> error st ("cannot skip token " ^ token_to_string t)

(* -- Function bodies ------------------------------------------------------ *)

type body_env = {
  func : func;
  locals : (string, value) Hashtbl.t;
  blocks : (string, block) Hashtbl.t;
  defined_blocks : (string, unit) Hashtbl.t;
  mutable pending : (instr * int * string) list;
}

let get_block env name =
  match Hashtbl.find_opt env.blocks name with
  | Some b -> b
  | None ->
    let b = mk_block ~name () in
    Hashtbl.replace env.blocks name b;
    b

let define_block st env name =
  let b = get_block env name in
  if Hashtbl.mem env.defined_blocks name then
    error st ("duplicate block label " ^ name);
  Hashtbl.replace env.defined_blocks name ();
  append_block env.func b;
  b

(* An operand: a %register, or a constant of the given type. *)
let parse_value st env ty :
    [ `Value of value | `Forward of string | `Block of block ] =
  match peek st with
  | Tpercent_ident name ->
    ignore (next st);
    if Hashtbl.mem env.locals name then `Value (Hashtbl.find env.locals name)
    else (
      match find_gvar st.m name with
      | Some g -> `Value (Vglobal g)
      | None -> (
        match find_func st.m name with
        | Some f -> `Value (Vfunc f)
        | None -> `Forward name))
  | _ -> `Value (Vconst (parse_const st ty))

(* Materialize parsed operands into an instruction, recording forwards. *)
let finish_instr env ?name ?alloc_ty ~ty op
    (ops : [ `Value of value | `Forward of string | `Block of block ] list) =
  let values =
    List.map
      (function
        | `Value v -> v
        | `Block b -> Vblock b
        | `Forward _ -> Vconst (Cundef Ltype.Void))
      ops
  in
  let i = mk_instr ?name ?alloc_ty ~ty op values in
  List.iteri
    (fun idx op ->
      match op with
      | `Forward n -> env.pending <- (i, idx, n) :: env.pending
      | `Value _ | `Block _ -> ())
    ops;
  i

let parse_label st env =
  match next st with
  | Tident "label" -> get_block env (expect_pident st "label name")
  | t -> error st ("expected 'label', found " ^ token_to_string t)

let parse_typed_operand st env =
  let ty = parse_type st in
  (ty, parse_value st env ty)

let rec parse_call_args st env acc =
  if peek st = Trparen then (ignore (next st); List.rev acc)
  else begin
    let _, v = parse_typed_operand st env in
    match peek st with
    | Tcomma ->
      ignore (next st);
      parse_call_args st env (v :: acc)
    | _ ->
      expect st Trparen "')'";
      List.rev (v :: acc)
  end

let parse_instr st env ~(current : block) =
  let result_name =
    match (peek st, peek2 st) with
    | Tpercent_ident n, Tequals ->
      ignore (next st);
      ignore (next st);
      Some n
    | _ -> None
  in
  let opname = expect_ident st "an opcode" in
  let bind_result i =
    (match result_name with
    | Some n -> Hashtbl.replace env.locals n (Vinstr i)
    | None -> ());
    append_instr current i
  in
  let binop op =
    let ty = parse_type st in
    let a = parse_value st env ty in
    expect st Tcomma "','";
    let b = parse_value st env ty in
    let rty = if is_comparison op then Ltype.Bool else ty in
    bind_result (finish_instr env ?name:result_name ~ty:rty op [ a; b ])
  in
  match opname with
  | "add" -> binop Add
  | "sub" -> binop Sub
  | "mul" -> binop Mul
  | "div" -> binop Div
  | "rem" -> binop Rem
  | "and" -> binop And
  | "or" -> binop Or
  | "xor" -> binop Xor
  | "shl" -> binop Shl
  | "shr" -> binop Shr
  | "seteq" -> binop SetEQ
  | "setne" -> binop SetNE
  | "setlt" -> binop SetLT
  | "setgt" -> binop SetGT
  | "setle" -> binop SetLE
  | "setge" -> binop SetGE
  | "ret" ->
    if peek st = Tident "void" then begin
      ignore (next st);
      match peek st with
      | Tstar | Tlparen ->
        (* "void" was the head of a derived type, e.g. ret void ()* %f *)
        let ty = parse_type_suffix st Ltype.Void in
        let v = parse_value st env ty in
        bind_result (finish_instr env ~ty:Ltype.Void Ret [ v ])
      | _ -> bind_result (finish_instr env ~ty:Ltype.Void Ret [])
    end
    else begin
      let ty = parse_type st in
      let v = parse_value st env ty in
      bind_result (finish_instr env ~ty:Ltype.Void Ret [ v ])
    end
  | "br" -> (
    match peek st with
    | Tident "label" ->
      let b = parse_label st env in
      bind_result (finish_instr env ~ty:Ltype.Void Br [ `Block b ])
    | _ ->
      let ty = parse_type st in
      let c = parse_value st env ty in
      expect st Tcomma "','";
      let t = parse_label st env in
      expect st Tcomma "','";
      let f = parse_label st env in
      bind_result (finish_instr env ~ty:Ltype.Void Br [ c; `Block t; `Block f ]))
  | "switch" ->
    let ty = parse_type st in
    let v = parse_value st env ty in
    expect st Tcomma "','";
    let default = parse_label st env in
    expect st Tlbracket "'['";
    let cases = ref [] in
    while peek st <> Trbracket do
      let cty = parse_type st in
      let c = parse_const st cty in
      expect st Tcomma "','";
      let b = parse_label st env in
      cases := (c, b) :: !cases
    done;
    ignore (next st);
    let ops =
      v :: `Block default
      :: List.concat_map
           (fun (c, b) -> [ `Value (Vconst c); `Block b ])
           (List.rev !cases)
    in
    bind_result (finish_instr env ~ty:Ltype.Void Switch ops)
  | "invoke" ->
    let ret_ty = parse_type st in
    let callee =
      let name = expect_pident st "callee" in
      match Hashtbl.find_opt env.locals name with
      | Some v -> `Value v
      | None -> (
        match find_func st.m name with
        | Some f -> `Value (Vfunc f)
        | None -> (
          match find_gvar st.m name with
          | Some g -> `Value (Vglobal g)
          | None -> `Forward name))
    in
    expect st Tlparen "'('";
    let args = parse_call_args st env [] in
    (match next st with
    | Tident "to" -> ()
    | t -> error st ("expected 'to', found " ^ token_to_string t));
    let normal = parse_label st env in
    (match next st with
    | Tident "unwind" -> ()
    | t -> error st ("expected 'unwind', found " ^ token_to_string t));
    (match next st with
    | Tident "to" -> ()
    | t -> error st ("expected 'to', found " ^ token_to_string t));
    let unwind = parse_label st env in
    let ops =
      callee :: `Block normal :: `Block unwind
      :: List.map (fun v -> (v :> [ `Value of value | `Forward of string | `Block of block ])) args
    in
    bind_result (finish_instr env ?name:result_name ~ty:ret_ty Invoke ops)
  | "unwind" -> bind_result (finish_instr env ~ty:Ltype.Void Unwind [])
  | "malloc" | "alloca" ->
    let op = if opname = "malloc" then Malloc else Alloca in
    let elt = parse_type st in
    let count =
      if peek st = Tcomma then begin
        ignore (next st);
        let _, v = parse_typed_operand st env in
        [ v ]
      end
      else []
    in
    bind_result
      (finish_instr env ?name:result_name ~alloc_ty:elt ~ty:(Ltype.Pointer elt)
         op count)
  | "free" ->
    let _, v = parse_typed_operand st env in
    bind_result (finish_instr env ~ty:Ltype.Void Free [ v ])
  | "load" ->
    let ty = parse_type st in
    let ptr = parse_value st env ty in
    let pointee =
      match resolve_ty st ty with
      | Ltype.Pointer p -> p
      | t -> error st (Fmt.str "load from non-pointer %a" Ltype.pp t)
    in
    bind_result (finish_instr env ?name:result_name ~ty:pointee Load [ ptr ])
  | "store" ->
    let _, v = parse_typed_operand st env in
    expect st Tcomma "','";
    let _, p = parse_typed_operand st env in
    bind_result (finish_instr env ~ty:Ltype.Void Store [ v; p ])
  | "getelementptr" ->
    let pty = parse_type st in
    let ptr = parse_value st env pty in
    let indices = ref [] in
    let index_tys = ref [] in
    while peek st = Tcomma do
      ignore (next st);
      let ity, v = parse_typed_operand st env in
      indices := v :: !indices;
      index_tys := ity :: !index_tys
    done;
    let indices = List.rev !indices in
    let index_values =
      List.map
        (function
          | `Value v -> v
          | `Forward _ | `Block _ -> Vconst (cint Ltype.Long 0L))
        indices
    in
    let rty =
      try Builder.gep_result_type st.m.mtypes pty index_values
      with Invalid_argument msg -> error st msg
    in
    bind_result (finish_instr env ?name:result_name ~ty:rty Gep (ptr :: indices))
  | "phi" ->
    let ty = parse_type st in
    let ops = ref [] in
    let rec go () =
      expect st Tlbracket "'['";
      let v = parse_value st env ty in
      expect st Tcomma "','";
      let bname = expect_pident st "predecessor label" in
      expect st Trbracket "']'";
      ops := `Block (get_block env bname) :: v :: !ops;
      if peek st = Tcomma then begin
        ignore (next st);
        go ()
      end
    in
    go ();
    bind_result (finish_instr env ?name:result_name ~ty Phi (List.rev !ops))
  | "cast" ->
    let ty = parse_type st in
    let v = parse_value st env ty in
    (match next st with
    | Tident "to" -> ()
    | t -> error st ("expected 'to', found " ^ token_to_string t));
    let target = parse_type st in
    bind_result (finish_instr env ?name:result_name ~ty:target Cast [ v ])
  | "call" ->
    let ret_ty = parse_type st in
    let callee =
      match peek st with
      | Tpercent_ident name ->
        ignore (next st);
        if Hashtbl.mem env.locals name then `Value (Hashtbl.find env.locals name)
        else (
          match find_func st.m name with
          | Some f -> `Value (Vfunc f)
          | None -> (
            match find_gvar st.m name with
            | Some g -> `Value (Vglobal g)
            | None -> `Forward name))
      | t -> error st ("expected callee, found " ^ token_to_string t)
    in
    expect st Tlparen "'('";
    let args = parse_call_args st env [] in
    let ops =
      callee
      :: List.map
           (fun v -> (v :> [ `Value of value | `Forward of string | `Block of block ]))
           args
    in
    bind_result (finish_instr env ?name:result_name ~ty:ret_ty Call ops)
  | "select" ->
    let cty = parse_type st in
    let c = parse_value st env cty in
    expect st Tcomma "','";
    let ty, a = parse_typed_operand st env in
    expect st Tcomma "','";
    let _, b = parse_typed_operand st env in
    bind_result (finish_instr env ?name:result_name ~ty Select [ c; a; b ])
  | op -> error st ("unknown opcode " ^ op)

let parse_body st (f : func) =
  let env =
    { func = f; locals = Hashtbl.create 64; blocks = Hashtbl.create 16;
      defined_blocks = Hashtbl.create 16; pending = [] }
  in
  List.iter (fun a -> Hashtbl.replace env.locals a.aname (Varg a)) f.fargs;
  expect st Tlbrace "'{'";
  let current = ref None in
  let rec go () =
    match peek st with
    | Trbrace -> ignore (next st)
    | Tident name when peek2 st = Tcolon ->
      current := Some (define_block st env name);
      ignore (next st);
      ignore (next st);
      go ()
    | Teof -> error st "unterminated function body"
    | _ ->
      let blk =
        match !current with
        | Some b -> b
        | None -> error st "instruction outside any basic block"
      in
      parse_instr st env ~current:blk;
      go ()
  in
  go ();
  (* Patch forward references. *)
  List.iter
    (fun (i, idx, name) ->
      match Hashtbl.find_opt env.locals name with
      | Some v -> set_operand i idx v
      | None -> error st ("undefined value %" ^ name ^ " in " ^ f.fname))
    env.pending;
  (* Every referenced block must have been defined. *)
  Hashtbl.iter
    (fun name _ ->
      if not (Hashtbl.mem env.defined_blocks name) then
        error st ("undefined label %" ^ name ^ " in " ^ f.fname))
    env.blocks

(* -- Top level ------------------------------------------------------------ *)

let parse_linkage st =
  match peek st with
  | Tident "internal" ->
    ignore (next st);
    Internal
  | _ -> External

(* Parse a function header: [internal] <retty> %name ( params ) — assumes
   the caller detected a definition (body follows) or declaration. *)
let parse_params st ~named =
  expect st Tlparen "'('";
  let params = ref [] in
  let varargs = ref false in
  let rec go () =
    match peek st with
    | Trparen -> ignore (next st)
    | Tellipsis ->
      ignore (next st);
      varargs := true;
      expect st Trparen "')'"
    | _ ->
      let ty = parse_type st in
      let name =
        if named then expect_pident st "parameter name"
        else
          match peek st with
          | Tpercent_ident n -> ignore (next st); n
          | _ -> ""
      in
      params := (name, ty) :: !params;
      (match peek st with
      | Tcomma -> ignore (next st); go ()
      | _ -> expect st Trparen "')'")
  in
  go ();
  (List.rev !params, !varargs)

let skip_braced_body st =
  expect st Tlbrace "'{'";
  let depth = ref 1 in
  while !depth > 0 do
    match next st with
    | Tlbrace -> incr depth
    | Trbrace -> decr depth
    | Teof -> error st "unterminated function body"
    | _ -> ()
  done

type deferred =
  | Dglobal of gvar * int (* token offset of the initializer *)
  | Dbody of func * int (* token offset of '{' *)

let parse_module ?(name = "parsed") (src : string) : modul =
  let toks = Array.of_list (Lexer.tokenize src) in
  let st = { toks; pos = 0; m = mk_module name } in
  let deferred = ref [] in
  (* pass 1 *)
  let rec top () =
    match peek st with
    | Teof -> ()
    | Tpercent_ident gname when peek2 st = Tequals -> (
      ignore (next st);
      ignore (next st);
      match peek st with
      | Tident "type" ->
        ignore (next st);
        let ty = parse_type st in
        define_type st.m gname ty;
        top ()
      | Tident "external" ->
        ignore (next st);
        let kind = expect_ident st "'global' or 'constant'" in
        let constant =
          match kind with
          | "global" -> false
          | "constant" -> true
          | k -> error st ("expected 'global' or 'constant', found " ^ k)
        in
        let ty = parse_type st in
        add_gvar st.m (mk_gvar ~linkage:External ~constant ~name:gname ~ty ());
        top ()
      | _ ->
        let linkage = parse_linkage st in
        let kind = expect_ident st "'global' or 'constant'" in
        let constant =
          match kind with
          | "global" -> false
          | "constant" -> true
          | k -> error st ("expected 'global' or 'constant', found " ^ k)
        in
        let ty = parse_type st in
        let g = mk_gvar ~linkage ~constant ~name:gname ~ty () in
        add_gvar st.m g;
        deferred := Dglobal (g, st.pos) :: !deferred;
        skip_const st;
        top ())
    | Tident "declare" ->
      ignore (next st);
      let ret = parse_type st in
      let fname = expect_pident st "function name" in
      let params, varargs = parse_params st ~named:false in
      add_func st.m (mk_func ~linkage:External ~varargs ~name:fname ~return:ret ~params ());
      top ()
    (* a bare Tpercent_ident here (no '=') starts a named return type,
       e.g. [%AClass* %ctor() { ... }] *)
    | Tident _ | Tlbrace | Tlbracket | Tpercent_ident _ ->
      let linkage = parse_linkage st in
      let ret = parse_type st in
      let fname = expect_pident st "function name" in
      let params, varargs = parse_params st ~named:true in
      let f = mk_func ~linkage ~varargs ~name:fname ~return:ret ~params () in
      add_func st.m f;
      deferred := Dbody (f, st.pos) :: !deferred;
      skip_braced_body st;
      top ()
    | t -> error st ("unexpected top-level token " ^ token_to_string t)
  in
  top ();
  (* pass 2 *)
  List.iter
    (function
      | Dglobal (g, pos) ->
        st.pos <- pos;
        g.ginit <- Some (parse_const st g.gty)
      | Dbody (f, pos) ->
        st.pos <- pos;
        parse_body st f)
    (List.rev !deferred);
  st.m

let parse_file ?name path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  parse_module ?name src
