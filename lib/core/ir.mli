(** The in-memory code representation (paper sections 2.1-2.4): a
    mutable graph of typed instructions in SSA form with explicit
    control flow, use-lists on every value with identity, and a module
    structure of functions and global variables.

    Operand layout conventions, by opcode:
    {v
     Ret               []  or  [v]
     Br                [Vblock dest]  or  [cond; Vblock iftrue; Vblock iffalse]
     Switch            [v; Vblock default; case0; Vblock b0; ...]
     Invoke            [callee; Vblock normal; Vblock unwind; arg0; ...]
     Unwind            []
     binary / setcc    [lhs; rhs]
     Malloc / Alloca   []  or  [count]          (allocated type in alloc_ty)
     Free              [ptr]
     Load              [ptr]
     Store             [value; ptr]
     Gep               [ptr; idx0; idx1; ...]
     Phi               [v0; Vblock pred0; v1; Vblock pred1; ...]
     Cast              [v]                      (target type is ity)
     Call              [callee; arg0; ...]
     Select            [cond; iftrue; iffalse]
    v} *)

(** The complete 31-opcode instruction set (paper section 2.1). *)
type opcode =
  | Ret
  | Br
  | Switch
  | Invoke
  | Unwind
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
  | SetEQ
  | SetNE
  | SetLT
  | SetGT
  | SetLE
  | SetGE
  | Malloc
  | Free
  | Alloca
  | Load
  | Store
  | Gep
  | Phi
  | Cast
  | Call
  | Select

(** All 31 opcodes, in a stable order used by the bitcode encoding. *)
val all_opcodes : opcode list

val opcode_name : opcode -> string
val is_terminator : opcode -> bool
val is_binary : opcode -> bool
val is_comparison : opcode -> bool

(** Instructions whose removal is observable; a value-producing
    instruction outside this set is dead when unused. *)
val has_side_effects : opcode -> bool

type linkage = Internal | External

(** {1 The recursive object graph} *)

type const =
  | Cbool of bool
  | Cint of Ltype.t * int64  (** the type carries the integer kind *)
  | Cfloat of Ltype.t * float
  | Cnull of Ltype.t
  | Cundef of Ltype.t
  | Czero of Ltype.t  (** zero-initializer for any type *)
  | Carray of Ltype.t * const list  (** element type, elements *)
  | Cstruct of Ltype.t * const list
  | Cgvar of gvar  (** address of a global variable *)
  | Cfunc of func  (** address of a function *)
  | Ccast of Ltype.t * const

and value =
  | Vconst of const
  | Vinstr of instr  (** the SSA register an instruction defines *)
  | Varg of arg
  | Vglobal of gvar
  | Vfunc of func
  | Vblock of block  (** label operand of terminators and phis *)

and use = { user : instr; index : int }

and instr = {
  iid : int;  (** unique id *)
  mutable iname : string;
  mutable ity : Ltype.t;  (** result type; [Void] when none *)
  iop : opcode;
  mutable operands : value array;
  mutable alloc_ty : Ltype.t option;  (** Malloc/Alloca element type *)
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
  mutable fblocks : block list;  (** head is the entry block *)
  mutable flinkage : linkage;
  mutable fparent : modul option;
  mutable fuses : use list;
}

and gvar = {
  gid : int;
  mutable gname : string;
  mutable gty : Ltype.t;  (** type of the contents, not the address *)
  mutable ginit : const option;  (** [None] for external declarations *)
  mutable gconstant : bool;
  mutable glinkage : linkage;
  mutable gparent : modul option;
  mutable guses : use list;
}

and modul = {
  mutable mname : string;
  mutable mglobals : gvar list;
  mutable mfuncs : func list;
  mtypes : Ltype.table;  (** named type definitions *)
}

val next_id : unit -> int

(** {1 Constants} *)

val type_of_const : Ltype.table -> const -> Ltype.t
val func_type : func -> Ltype.t
val type_of : Ltype.table -> value -> Ltype.t

(** Truncate / sign-extend an int64 into the canonical bit-pattern for
    an integer kind (sign-extended when signed, zero-extended when
    unsigned). *)
val normalize_int : Ltype.int_kind -> int64 -> int64

val cint : Ltype.int_kind -> int64 -> const

(** @raise Invalid_argument when the type is not integer or bool. *)
val cint_of_ty : Ltype.t -> int64 -> const

(** {1 Use-lists} *)

val add_use : value -> use -> unit
val remove_use : value -> use -> unit

(** Replace operand [idx] of an instruction, maintaining use-lists. *)
val set_operand : instr -> int -> value -> unit

(** Replace the whole operand array, maintaining use-lists. *)
val set_operands : instr -> value array -> unit

val uses_of : value -> use list
val num_uses : value -> int
val has_uses : value -> bool

(** Whether executing the instruction can trap even though its opcode is
    side-effect-free: a [Div]/[Rem] whose divisor is not a provably
    nonzero constant.  Dead-code elimination must keep such
    instructions — division by zero traps observably in this IR. *)
val may_trap : instr -> bool

(** Redirect every use of the first value to the second
    (replaceAllUsesWith). *)
val replace_all_uses_with : value -> value -> unit

(** {1 Instructions} *)

val mk_instr :
  ?name:string ->
  ?alloc_ty:Ltype.t ->
  ty:Ltype.t ->
  opcode ->
  value list ->
  instr

val instr_value : instr -> value

(** Detach from the parent block without touching operand use-lists. *)
val unlink_instr : instr -> unit

(** Remove from the block and release operand uses.  The instruction
    itself must be unused. *)
val erase_instr : instr -> unit

val append_instr : block -> instr -> unit
val prepend_instr : block -> instr -> unit
val insert_before : point:instr -> instr -> unit

(** The block's final instruction when it is a terminator. *)
val terminator : block -> instr option

val insert_before_terminator : block -> instr -> unit

(** {1 Opcode-specific accessors} *)

(** @raise Invalid_argument when the operand is not a block label. *)
val as_block : value -> block

(** Successor blocks of a terminator. *)
val successors : instr -> block list

val phi_incoming : instr -> (value * block) list
val phi_add_incoming : instr -> value -> block -> unit
val phi_remove_incoming : instr -> block -> unit
val call_callee : instr -> value
val call_args : instr -> value list
val switch_cases : instr -> (const * block) list

(** {1 Blocks} *)

val mk_block : ?name:string -> unit -> block
val append_block : func -> block -> unit
val remove_block : func -> block -> unit
val entry_block : func -> block

(** Blocks whose terminator targets this one (deduplicated). *)
val predecessors : block -> block list

(** {1 Functions} *)

val mk_func :
  ?linkage:linkage ->
  ?varargs:bool ->
  name:string ->
  return:Ltype.t ->
  params:(string * Ltype.t) list ->
  unit ->
  func

val is_declaration : func -> bool
val iter_instrs : (instr -> unit) -> func -> unit
val fold_instrs : ('a -> instr -> 'a) -> 'a -> func -> 'a
val instr_count : func -> int

(** {1 Globals and modules} *)

val mk_gvar :
  ?linkage:linkage ->
  ?constant:bool ->
  ?init:const ->
  name:string ->
  ty:Ltype.t ->
  unit ->
  gvar

val mk_module : string -> modul
val add_func : modul -> func -> unit
val add_gvar : modul -> gvar -> unit
val remove_func : modul -> func -> unit
val remove_gvar : modul -> gvar -> unit
val find_func : modul -> string -> func option
val find_gvar : modul -> string -> gvar option
val define_type : modul -> string -> Ltype.t -> unit
val module_instr_count : modul -> int

(** Identity-based equality for values (structural for constants). *)
val value_equal : value -> value -> bool
