(** llvm-lint: a dataflow-based static safety analyzer over the IR.

    A suite of memory-safety checkers built on the generic {!Dataflow}
    engine, extending the paper's static safety story (Table 1 / section
    4.1.2) from type safety to semantic memory safety.  Diagnostic
    codes are stable:

    - [L001] uninitialized load (forward must-init over tracked allocas,
      {!Modref}-aware across calls)
    - [L002] null dereference (SCCP-style constant/nullness reasoning)
    - [L003] use-after-free (must-freed {!Dsa} nodes)
    - [L004] double free (same analysis as L003)
    - [L005] memory leak (module-wide: malloc never freed, non-escaping)
    - [L006] dead store (backward liveness, {!Modref}-aware)
    - [L007] unreachable block
    - [L008] definite signed overflow ({!Range}-based)
    - [L009] division by a provably-zero value; shift amount provably
      outside the type's bit width
    - [L010] getelementptr array index provably out of bounds

    Diagnostics are deterministically ordered: by function name, block
    position, instruction position, then code. *)

type severity = Info | Warning | Error

val severity_rank : severity -> int
val severity_name : severity -> string
val severity_of_string : string -> severity option

type diag = {
  code : string;
  severity : severity;
  func : string;
  block : string;
  block_index : int;  (** position of the block within its function *)
  instr_index : int;  (** position within the block; -1 for block-level *)
  message : string;
}

(** The source-position order {!run} sorts by. *)
val compare_diag : diag -> diag -> int

(** Every diagnostic code paired with its short human name, in order. *)
val all_codes : (string * string) list

val pp_diag : Format.formatter -> diag -> unit

(** One-line JSON object (for editors and CI annotators). *)
val diag_to_json : diag -> string

(** Keep diagnostics at or above the given severity. *)
val filter_severity : severity -> diag list -> diag list

(** Findings per code, one entry for every code in {!all_codes}. *)
val count_by_code : diag list -> (string * int) list

(** Run every checker (or just those whose codes are in [only]) over the
    module's defined functions. *)
val run : ?only:string list -> Llvm_ir.Ir.modul -> diag list

val has_errors : diag list -> bool

(** {2 Exported facts}

    The value abstraction and the uninit facts the checkers use. *)

(** [Some n] when [v] provably evaluates to the integer [n]. *)
val eval_int : Llvm_ir.Ltype.table -> Llvm_ir.Ir.value -> int64 option

(** [true] when [v] is provably the null pointer. *)
val proves_null : Llvm_ir.Ltype.table -> Llvm_ir.Ir.value -> bool

(** iids of loads proven to read never-initialized stack slots, across
    the whole module (L001's facts, consumed by {!Llvm_transforms}). *)
val undef_loads : Llvm_ir.Ir.modul -> (int, unit) Hashtbl.t
