(** The baseline JIT tier (paper section 3.4): per-function compilation
    of IR into a flat, register-based bytecode plus a tight dispatch
    loop.

    The tier runs verified modules: on one, {!compile} turns every
    defined function into this one form, and {!exec} runs it on freshly
    allocated register files.  A function only unverified IR can make
    (an operand whose type disagrees with its instruction's, a constant
    without its type's canonical form, a block without a terminator)
    traps at compile time with [bytecode: ill-typed function <f>].

    Semantics are shared with the tree-walking interpreter down to the
    helper functions, so the two tiers are bit-for-bit comparable: same
    outputs, same traps, same fuel accounting (one unit per executed IR
    instruction; phi copies and profiling hooks are free), and same
    block-execution profiles.  The serving layer and future tiers
    depend on this stated API, not on compiler internals. *)

type operand =
  | Reg of int  (** boxed register slot *)
  | Cst of int  (** constant-pool index *)
  | Wrd of int * Llvm_ir.Ltype.t
      (** word register slot, and its resolved word type (an integer of
          32 bits or fewer, or bool: see {!Interp.is_word}) *)

type callee =
  | Direct of Llvm_ir.Ir.func
  | Indirect of operand * int  (** dynamic callee, call-site instr id *)

type gstep =
  | Goff of int  (** constant byte offset *)
  | Gscale of operand * int
      (** index operand times element size: a variable index, or a
          constant too large to fold *)

(** One bytecode instruction.  [Prof]/[Copy]/[Wmov]/[Jmp] are free
    bookkeeping with no IR counterpart; everything else charges one fuel
    unit.  The [W] instructions read and write word registers
    only.  In the others a bare [int] destination is a boxed register,
    except in [Cmp], whose bool result is a word. *)
type bc =
  | Prof of int
  | Copy of int * operand
  | Wmov of int * int
  | Jmp of int
  | Wbin of Llvm_ir.Ir.opcode * Llvm_ir.Ltype.int_kind * int * int * int
  | Wcmp of Llvm_ir.Ir.opcode * Llvm_ir.Ltype.int_kind * int * int * int
  | Wcast of Llvm_ir.Ltype.t * int * int
  | Wsel of int * int * int * int
  | Wload of Llvm_ir.Ltype.t * int * operand
  | Wstore of int * int * operand
  | Bin of Llvm_ir.Ir.opcode * operand * operand * operand
  | Cmp of Llvm_ir.Ir.opcode * int * operand * operand
  | CastI of Llvm_ir.Ltype.t * operand * operand
  | Sel of operand * operand * operand * operand
  | AllocI of {
      dst : int;
      elt_size : int;
      count : operand option;
      on_stack : bool;
    }
  | FreeI of operand
  | LoadI of Llvm_ir.Ltype.t * int * operand
  | StoreI of int * operand * operand
  | GepI of int * operand * gstep array
  | CallI of { dst : operand; void : bool; callee : callee; args : operand array }
  | InvokeI of {
      dst : operand;
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
  nregs : int;  (** boxed file size, including phi-copy temporaries *)
  arg_slots : operand array;  (** each argument's slot: [Reg] or [Wrd] *)
  cpool : Interp.rtval array;
  wfile : int array;
      (** the word file as every activation starts it: word constants
          in their slots, zeros elsewhere; its length is the word file
          size *)
  wconsts : (int * int) list;  (** word constants: slot, value *)
  code : bc array;
  src_instrs : int;  (** IR instructions compiled (statistics) *)
}

(** Compile one defined function (traps on a declaration, and on a
    function of unverified IR: see above).  With
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
