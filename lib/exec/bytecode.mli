(** The baseline JIT tier (paper section 3.4): per-function compilation
    of IR into a flat, register-based bytecode plus a tight dispatch
    loop.

    Semantics are shared with the tree-walking interpreter down to the
    helper functions, so the two tiers are bit-for-bit comparable: same
    outputs, same traps, same fuel accounting (one unit per executed IR
    instruction; phi copies and profiling hooks are free), and same
    block-execution profiles.  The serving layer and future tiers
    depend on this stated API, not on compiler internals. *)

type operand =
  | Reg of int  (** register slot *)
  | Cst of int  (** constant-pool index *)

type callee =
  | Direct of Llvm_ir.Ir.func
  | Indirect of operand * int  (** dynamic callee, call-site instr id *)

type 'a gstep =
  | Goff of int  (** constant byte offset *)
  | Gscale of 'a * int  (** dynamic index times element size *)

(** One bytecode instruction.  [Prof]/[Copy]/[Jmp]/[DeadEnd] are free
    bookkeeping with no IR counterpart; everything else charges one
    fuel unit. *)
type bc =
  | Prof of int
  | Copy of int * operand
  | Jmp of int
  | DeadEnd of string
  | Bin of Llvm_ir.Ir.opcode * int * operand * operand
  | Cmp of Llvm_ir.Ir.opcode * int * operand * operand
  | CastI of Llvm_ir.Ltype.t * int * operand
  | Sel of int * operand * operand * operand
  | AllocI of {
      dst : int;
      elt_size : int;
      count : operand option;
      on_stack : bool;
    }
  | FreeI of operand
  | LoadI of Llvm_ir.Ltype.t * int * operand
  | StoreI of int * operand * operand
  | GepI of int * operand * operand gstep array
  | GepSlow of
      int * operand * Llvm_ir.Ltype.t * (Llvm_ir.Ltype.t * operand) array
  | CallI of { dst : int; void : bool; callee : callee; args : operand array }
  | InvokeI of {
      dst : int;
      void : bool;
      callee : callee;
      args : operand array;
      normal : int;
      unwind : int;
    }
  | RetI of operand option
  | Br1 of int
  | Bra of operand * int * int
  | Sw of operand * (Interp.rtval * int) array * int
  | UnwindI

type compiled = {
  cname : string;
  nregs : int;  (** frame size, including phi-copy temporaries *)
  arg_slots : int array;
  cpool : Interp.rtval array;
  code : bc array;
  src_instrs : int;  (** IR instructions compiled (statistics) *)
  mutable free_frames : Interp.rtval array list;
      (** recycled register frames — frames need no clearing between
          activations because every slot is written (def dominates use)
          before it is read *)
  mutable nfree : int;
}

(** Compile one defined function (traps on a declaration).  With
    [profile], blocks are laid out hot-first (entry pinned) by aggregate
    weight — pure layout: semantics, fuel and profiles are unchanged. *)
val compile :
  ?profile:Llvm_profile.Profile.t ->
  Interp.machine ->
  Llvm_ir.Ir.func ->
  compiled

(** Run compiled code against the shared machine state.  Fuel, traps,
    output and profiles behave exactly as [Interp.exec_func]. *)
val exec : Interp.machine -> compiled -> Interp.rtval list -> Interp.outcome

(** {1 Introspection (tests, debugging)} *)

val pp_operand : Format.formatter -> operand -> unit
val pp_bc : Format.formatter -> bc -> unit
val disassemble : compiled -> string
