(* The in-memory code representation (paper sections 2.1-2.4).

   The representation is a mutable graph, as in a conventional compiler
   middle end: instructions hold operand arrays referencing values, and
   every value with identity (instruction results, arguments, globals,
   functions, basic blocks) maintains a use-list so that
   replace-all-uses-with and dead-code queries are O(uses).

   Operand layout conventions, by opcode:
     Ret               []  or  [v]
     Br                [Vblock dest]  or  [cond; Vblock iftrue; Vblock iffalse]
     Switch            [v; Vblock default; case0; Vblock b0; case1; Vblock b1; ...]
     Invoke            [callee; Vblock normal; Vblock unwind; arg0; ...]
     Unwind            []
     binary / setcc    [lhs; rhs]
     Malloc / Alloca   []  or  [count]         (allocated type in [alloc_ty])
     Free              [ptr]
     Load              [ptr]
     Store             [value; ptr]
     Gep               [ptr; idx0; idx1; ...]
     Phi               [v0; Vblock pred0; v1; Vblock pred1; ...]
     Cast              [v]                      (target type is [ity])
     Call              [callee; arg0; ...]
     Select            [cond; iftrue; iffalse] *)

type opcode =
  (* terminators *)
  | Ret
  | Br
  | Switch
  | Invoke
  | Unwind
  (* binary arithmetic / logical *)
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  (* comparisons *)
  | SetEQ
  | SetNE
  | SetLT
  | SetGT
  | SetLE
  | SetGE
  (* memory *)
  | Malloc
  | Free
  | Alloca
  | Load
  | Store
  | Gep
  (* other *)
  | Phi
  | Cast
  | Call
  | Select

let all_opcodes =
  [ Ret; Br; Switch; Invoke; Unwind; Add; Sub; Mul; Div; Rem; And; Or; Xor;
    Shl; Shr; SetEQ; SetNE; SetLT; SetGT; SetLE; SetGE; Malloc; Free; Alloca;
    Load; Store; Gep; Phi; Cast; Call; Select ]

let opcode_name = function
  | Ret -> "ret"
  | Br -> "br"
  | Switch -> "switch"
  | Invoke -> "invoke"
  | Unwind -> "unwind"
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | SetEQ -> "seteq"
  | SetNE -> "setne"
  | SetLT -> "setlt"
  | SetGT -> "setgt"
  | SetLE -> "setle"
  | SetGE -> "setge"
  | Malloc -> "malloc"
  | Free -> "free"
  | Alloca -> "alloca"
  | Load -> "load"
  | Store -> "store"
  | Gep -> "getelementptr"
  | Phi -> "phi"
  | Cast -> "cast"
  | Call -> "call"
  | Select -> "select"

let is_terminator = function
  | Ret | Br | Switch | Invoke | Unwind -> true
  | _ -> false

let is_binary = function
  | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr -> true
  | _ -> false

let is_comparison = function
  | SetEQ | SetNE | SetLT | SetGT | SetLE | SetGE -> true
  | _ -> false

(* Instructions whose removal is observable (memory writes, control flow,
   calls).  A value-producing instruction outside this set is dead when it
   has no uses. *)
let has_side_effects = function
  | Store | Free | Call | Invoke | Ret | Br | Switch | Unwind | Malloc
  | Alloca ->
    true
  | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | SetEQ | SetNE
  | SetLT | SetGT | SetLE | SetGE | Load | Gep | Phi | Cast | Select ->
    false

type linkage = Internal | External

(* -- The recursive knot ------------------------------------------------ *)

type const =
  | Cbool of bool
  | Cint of Ltype.t * int64 (* type carries the integer kind *)
  | Cfloat of Ltype.t * float
  | Cnull of Ltype.t (* typed null pointer *)
  | Cundef of Ltype.t
  | Czero of Ltype.t (* zero-initializer for any type *)
  | Carray of Ltype.t * const list (* element type, elements *)
  | Cstruct of Ltype.t * const list
  | Cgvar of gvar (* address of a global variable *)
  | Cfunc of func (* address of a function *)
  | Ccast of Ltype.t * const

and value =
  | Vconst of const
  | Vinstr of instr
  | Varg of arg
  | Vglobal of gvar
  | Vfunc of func
  | Vblock of block

and use = { user : instr; index : int }

and instr = {
  iid : int;
  mutable iname : string;
  mutable ity : Ltype.t; (* result type; Void when none *)
  iop : opcode;
  mutable operands : value array;
  mutable alloc_ty : Ltype.t option; (* Malloc/Alloca payload *)
  mutable iparent : block option;
  mutable iuses : use list;
}

and block = {
  bid : int;
  mutable bname : string;
  mutable instrs : instr list;
  mutable bparent : func option;
  mutable buses : use list;
}

and arg = {
  aid : int;
  mutable aname : string;
  mutable aty : Ltype.t;
  mutable aparent : func option;
  mutable auses : use list;
}

and func = {
  fid : int;
  mutable fname : string;
  mutable freturn : Ltype.t;
  mutable fvarargs : bool;
  mutable fargs : arg list;
  mutable fblocks : block list; (* head is the entry block *)
  mutable flinkage : linkage;
  mutable fparent : modul option;
  mutable fuses : use list;
}

and gvar = {
  gid : int;
  mutable gname : string;
  mutable gty : Ltype.t; (* type of the contents, not of the address *)
  mutable ginit : const option; (* None for external declarations *)
  mutable gconstant : bool;
  mutable glinkage : linkage;
  mutable gparent : modul option;
  mutable guses : use list;
}

and modul = {
  mutable mname : string;
  mutable mglobals : gvar list;
  mutable mfuncs : func list;
  mtypes : Ltype.table; (* named type definitions *)
}

let next_id =
  let counter = ref 0 in
  fun () ->
    incr counter;
    !counter

(* -- Constants --------------------------------------------------------- *)

let rec type_of_const (_table : Ltype.table) = function
  | Cbool _ -> Ltype.Bool
  | Cint (t, _) | Cfloat (t, _) | Cundef t | Czero t -> t
  | Cnull t -> t
  | Carray (elt, elts) -> Ltype.Array (List.length elts, elt)
  | Cstruct (t, _) -> t
  | Cgvar g -> Ltype.Pointer g.gty
  | Cfunc f -> Ltype.Pointer (func_type f)
  | Ccast (t, _) -> t

and func_type f =
  Ltype.Function (f.freturn, List.map (fun a -> a.aty) f.fargs, f.fvarargs)

and type_of table = function
  | Vconst c -> type_of_const table c
  | Vinstr i -> i.ity
  | Varg a -> a.aty
  | Vglobal g -> Ltype.Pointer g.gty
  | Vfunc f -> Ltype.Pointer (func_type f)
  | Vblock _ -> Ltype.Void

(* Truncate/sign-extend an int64 so it is a valid bit-pattern for [kind],
   stored in the canonical (sign-extended for signed, zero-extended for
   unsigned) form used throughout the compiler. *)
let normalize_int kind (v : int64) : int64 =
  let bits = Ltype.int_bits kind in
  if bits = 64 then v
  else
    let mask = Int64.sub (Int64.shift_left 1L bits) 1L in
    let low = Int64.logand v mask in
    if Ltype.is_signed kind then
      let sign_bit = Int64.shift_left 1L (bits - 1) in
      if Int64.logand low sign_bit <> 0L then Int64.logor low (Int64.lognot mask)
      else low
    else low

let cint kind v = Cint (Ltype.Integer kind, normalize_int kind v)
let cint_of_ty ty v =
  match ty with
  | Ltype.Integer k -> cint k v
  | Ltype.Bool -> Cbool (v <> 0L)
  | _ -> invalid_arg "Ir.cint_of_ty: not an integer type"

(* -- Use-list maintenance ---------------------------------------------- *)

let add_use (v : value) (u : use) =
  match v with
  | Vinstr i -> i.iuses <- u :: i.iuses
  | Varg a -> a.auses <- u :: a.auses
  | Vglobal g -> g.guses <- u :: g.guses
  | Vfunc f -> f.fuses <- u :: f.fuses
  | Vblock b -> b.buses <- u :: b.buses
  | Vconst _ -> ()

let remove_use (v : value) (u : use) =
  let del l = List.filter (fun x -> not (x.user == u.user && x.index = u.index)) l in
  match v with
  | Vinstr i -> i.iuses <- del i.iuses
  | Varg a -> a.auses <- del a.auses
  | Vglobal g -> g.guses <- del g.guses
  | Vfunc f -> f.fuses <- del f.fuses
  | Vblock b -> b.buses <- del b.buses
  | Vconst _ -> ()

let set_operand (i : instr) idx (v : value) =
  remove_use i.operands.(idx) { user = i; index = idx };
  i.operands.(idx) <- v;
  add_use v { user = i; index = idx }

(* Replace the whole operand array, fixing up use lists. *)
let set_operands (i : instr) (ops : value array) =
  Array.iteri (fun idx v -> remove_use v { user = i; index = idx }) i.operands;
  i.operands <- ops;
  Array.iteri (fun idx v -> add_use v { user = i; index = idx }) ops

let uses_of = function
  | Vinstr i -> i.iuses
  | Varg a -> a.auses
  | Vglobal g -> g.guses
  | Vfunc f -> f.fuses
  | Vblock b -> b.buses
  | Vconst _ -> []

let num_uses v = List.length (uses_of v)
let has_uses v = uses_of v <> []

(* Division by zero traps deterministically in this IR, so a [Div]/[Rem]
   whose divisor is not a provably nonzero constant is observable even
   when its result is unused: dead-code elimination must keep it. *)
let may_trap (i : instr) : bool =
  match i.iop with
  | Div | Rem -> (
    match i.operands.(1) with
    | Vconst (Cint (_, v)) -> v = 0L
    | Vconst (Cbool b) -> not b
    | _ -> true)
  | _ -> false

(* replaceAllUsesWith: redirect every use of [old_v] to [new_v]. *)
let replace_all_uses_with (old_v : value) (new_v : value) =
  let uses = uses_of old_v in
  List.iter (fun u -> set_operand u.user u.index new_v) uses

(* -- Instruction creation / placement ---------------------------------- *)

let mk_instr ?(name = "") ?alloc_ty ~ty op operands =
  let i =
    { iid = next_id (); iname = name; ity = ty; iop = op;
      operands = Array.of_list operands; alloc_ty; iparent = None;
      iuses = [] }
  in
  Array.iteri (fun idx v -> add_use v { user = i; index = idx }) i.operands;
  i

let instr_value i = Vinstr i

(* Detach an instruction from its block without touching its operand
   use-lists (it can be re-inserted elsewhere). *)
let unlink_instr (i : instr) =
  (match i.iparent with
  | Some b -> b.instrs <- List.filter (fun x -> not (x == i)) b.instrs
  | None -> ());
  i.iparent <- None

(* Delete an instruction entirely: drop it from its block and release its
   operand uses.  The instruction must itself be unused. *)
let erase_instr (i : instr) =
  assert (i.iuses = []);
  unlink_instr i;
  Array.iteri (fun idx v -> remove_use v { user = i; index = idx }) i.operands;
  i.operands <- [||]

let append_instr (b : block) (i : instr) =
  i.iparent <- Some b;
  b.instrs <- b.instrs @ [ i ]

let prepend_instr (b : block) (i : instr) =
  i.iparent <- Some b;
  b.instrs <- i :: b.instrs

(* Insert [i] immediately before [point] in point's block. *)
let insert_before ~(point : instr) (i : instr) =
  match point.iparent with
  | None -> invalid_arg "Ir.insert_before: point not in a block"
  | Some b ->
    i.iparent <- Some b;
    let rec go = function
      | [] -> [ i ]
      | x :: rest when x == point -> i :: x :: rest
      | x :: rest -> x :: go rest
    in
    b.instrs <- go b.instrs

let terminator (b : block) : instr option =
  let rec last = function
    | [] -> None
    | [ x ] -> if is_terminator x.iop then Some x else None
    | _ :: rest -> last rest
  in
  last b.instrs

(* Insert before the terminator (or append when the block is unterminated). *)
let insert_before_terminator (b : block) (i : instr) =
  match terminator b with
  | Some t -> insert_before ~point:t i
  | None -> append_instr b i

(* -- Opcode-specific accessors ------------------------------------------ *)

let as_block = function
  | Vblock b -> b
  | _ -> invalid_arg "Ir.as_block: operand is not a basic block"

(* Successor blocks of a terminator instruction. *)
let successors (i : instr) : block list =
  match i.iop with
  | Ret | Unwind -> []
  | Br ->
    if Array.length i.operands = 1 then [ as_block i.operands.(0) ]
    else [ as_block i.operands.(1); as_block i.operands.(2) ]
  | Switch ->
    let rec cases k acc =
      if k >= Array.length i.operands then List.rev acc
      else cases (k + 2) (as_block i.operands.(k + 1) :: acc)
    in
    as_block i.operands.(1) :: cases 2 []
  | Invoke -> [ as_block i.operands.(1); as_block i.operands.(2) ]
  | _ -> invalid_arg "Ir.successors: not a terminator"

let phi_incoming (i : instr) : (value * block) list =
  assert (i.iop = Phi);
  let rec go k acc =
    if k >= Array.length i.operands then List.rev acc
    else go (k + 2) ((i.operands.(k), as_block i.operands.(k + 1)) :: acc)
  in
  go 0 []

let phi_add_incoming (i : instr) (v : value) (b : block) =
  assert (i.iop = Phi);
  let n = Array.length i.operands in
  let ops = Array.make (n + 2) v in
  Array.blit i.operands 0 ops 0 n;
  ops.(n) <- v;
  ops.(n + 1) <- Vblock b;
  set_operands i ops

(* Remove the incoming entry for predecessor [b] in a phi. *)
let phi_remove_incoming (i : instr) (b : block) =
  assert (i.iop = Phi);
  let pairs = phi_incoming i in
  let pairs = List.filter (fun (_, p) -> not (p == b)) pairs in
  let ops = List.concat_map (fun (v, p) -> [ v; Vblock p ]) pairs in
  set_operands i (Array.of_list ops)

let call_callee (i : instr) = i.operands.(0)
let call_args (i : instr) =
  match i.iop with
  | Call -> Array.to_list (Array.sub i.operands 1 (Array.length i.operands - 1))
  | Invoke -> Array.to_list (Array.sub i.operands 3 (Array.length i.operands - 3))
  | _ -> invalid_arg "Ir.call_args: not a call"

let switch_cases (i : instr) : (const * block) list =
  assert (i.iop = Switch);
  let rec go k acc =
    if k >= Array.length i.operands then List.rev acc
    else
      match i.operands.(k) with
      | Vconst c -> go (k + 2) ((c, as_block i.operands.(k + 1)) :: acc)
      | _ -> invalid_arg "Ir.switch_cases: non-constant case"
  in
  go 2 []

(* -- Blocks ------------------------------------------------------------- *)

let mk_block ?(name = "") () =
  { bid = next_id (); bname = name; instrs = []; bparent = None; buses = [] }

let append_block (f : func) (b : block) =
  b.bparent <- Some f;
  f.fblocks <- f.fblocks @ [ b ]

let remove_block (f : func) (b : block) =
  f.fblocks <- List.filter (fun x -> not (x == b)) f.fblocks;
  b.bparent <- None

let entry_block (f : func) =
  match f.fblocks with
  | [] -> invalid_arg ("Ir.entry_block: function " ^ f.fname ^ " has no body")
  | b :: _ -> b

(* Predecessor blocks: blocks whose terminator uses this block as a label.
   Phi references do not create CFG edges. *)
let predecessors (b : block) : block list =
  (* first occurrence of each block, in use-list order; a block has few
     predecessors, so a list scan dedupes more cheaply than a table *)
  List.rev
    (List.fold_left
       (fun acc u ->
         match u.user.iparent with
         | Some p when is_terminator u.user.iop && not (List.memq p acc) -> p :: acc
         | _ -> acc)
       [] b.buses)

(* -- Functions ---------------------------------------------------------- *)

let mk_func ?(linkage = External) ?(varargs = false) ~name ~return ~params () =
  let f =
    { fid = next_id (); fname = name; freturn = return; fvarargs = varargs;
      fargs = []; fblocks = []; flinkage = linkage; fparent = None;
      fuses = [] }
  in
  f.fargs <-
    List.map
      (fun (pname, pty) ->
        { aid = next_id (); aname = pname; aty = pty; aparent = Some f;
          auses = [] })
      params;
  f

let is_declaration (f : func) = f.fblocks = []

let iter_instrs (fn : instr -> unit) (f : func) =
  List.iter (fun b -> List.iter fn b.instrs) f.fblocks

let fold_instrs (fn : 'a -> instr -> 'a) (acc : 'a) (f : func) =
  List.fold_left
    (fun acc b -> List.fold_left fn acc b.instrs)
    acc f.fblocks

let instr_count (f : func) = fold_instrs (fun n _ -> n + 1) 0 f

(* -- Globals and modules ------------------------------------------------ *)

let mk_gvar ?(linkage = External) ?(constant = false) ?init ~name ~ty () =
  { gid = next_id (); gname = name; gty = ty; ginit = init;
    gconstant = constant; glinkage = linkage; gparent = None; guses = [] }

let mk_module name =
  { mname = name; mglobals = []; mfuncs = []; mtypes = Ltype.create_table () }

let add_func (m : modul) (f : func) =
  f.fparent <- Some m;
  m.mfuncs <- m.mfuncs @ [ f ]

let add_gvar (m : modul) (g : gvar) =
  g.gparent <- Some m;
  m.mglobals <- m.mglobals @ [ g ]

let remove_func (m : modul) (f : func) =
  m.mfuncs <- List.filter (fun x -> not (x == f)) m.mfuncs;
  f.fparent <- None

let remove_gvar (m : modul) (g : gvar) =
  m.mglobals <- List.filter (fun x -> not (x == g)) m.mglobals;
  g.gparent <- None

let find_func (m : modul) name =
  List.find_opt (fun f -> f.fname = name) m.mfuncs

let find_gvar (m : modul) name =
  List.find_opt (fun g -> g.gname = name) m.mglobals

let define_type (m : modul) name ty = Hashtbl.replace m.mtypes name ty

let module_instr_count (m : modul) =
  List.fold_left (fun n f -> n + instr_count f) 0 m.mfuncs

(* Equality helpers keyed on identity. *)
let value_equal a b =
  match (a, b) with
  | Vinstr x, Vinstr y -> x == y
  | Varg x, Varg y -> x == y
  | Vglobal x, Vglobal y -> x == y
  | Vfunc x, Vfunc y -> x == y
  | Vblock x, Vblock y -> x == y
  | Vconst x, Vconst y -> x = y
  | _ -> false
