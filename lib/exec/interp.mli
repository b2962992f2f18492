(** The execution engine's interpreter tier (paper section 3.4).

    A tree-walking interpreter: it executes IR directly against the
    simulated memory of {!Memory}, implements the invoke/unwind
    stack-unwinding semantics of section 2.4, hosts the C++-style
    exception-handling runtime of Figure 3 (the [llvm_cxxeh_*]
    builtins), and can record block-execution profiles — the
    "light-weight instrumentation" of section 3.5.

    Undefined values read as zero, deterministically, so optimized and
    unoptimized programs can be compared for semantic equivalence.

    The machine state and the evaluation helpers are exposed so the
    {!Bytecode} tier can execute against the same state with the same
    semantics; {!Engine} picks the tier per call via [dispatch]. *)

exception Exit_program of int

type rtval =
  | Rvoid
  | Rbool of bool
  | Rint of Llvm_ir.Ltype.int_kind * int64  (** stored normalized *)
  | Rfloat of Llvm_ir.Ltype.t * float
  | Rptr of int64

type outcome = Normal of rtval | Unwinding

(** [Rbool b], as one of two shared values, so producing a boolean
    allocates nothing. *)
val rbool : bool -> rtval

type machine = {
  modul : Llvm_ir.Ir.modul;
  mem : Memory.t;
  globals : int64 Llvm_analysis.Ids.t;  (** gvar id -> address *)
  func_addr : int64 Llvm_analysis.Ids.t;  (** func id -> code address *)
  func_of_id : Llvm_ir.Ir.func Llvm_analysis.Ids.t;  (** allocation id -> func *)
  frames : Llvm_analysis.Ids.Numbering.t Llvm_analysis.Ids.t;
      (** func id -> the interpreter's frame layout for it: arguments,
          then instructions, numbered densely on its first run *)
  mutable fuel : int;  (** remaining instruction budget *)
  out : Buffer.t;  (** program output *)
  mutable exc : (int64 * int64) option;  (** live exception: object, typeid *)
  mutable sjlj : (int64 * int64) option;  (** in-flight longjmp: buf, value *)
  block_counts : (int, int) Hashtbl.t;  (** block id -> executions *)
  call_counts : (int, (int, int) Hashtbl.t) Hashtbl.t;
      (** indirect call site (instr id) -> resolved callee (func id) ->
          count; the call-target half of the section 3.5
          instrumentation *)
  pools : (int64, int64 list ref) Hashtbl.t;  (** pool -> members *)
  mutable profiling : bool;
  mutable deopts : int;
      (** [llvm_deopt] executions: failed speculation guards *)
  mutable dispatch : machine -> Llvm_ir.Ir.func -> rtval list -> outcome;
      (** Every call site routes through [dispatch] so an execution
          engine can pick a tier per function; defaults to
          {!exec_func}. *)
}

val default_fuel : int

(** Raise the trap every tier raises on an exhausted instruction budget. *)
val fuel_trap : unit -> 'a

(** Materialize a module: allocate globals, write initializers, assign
    code addresses. *)
val create : Llvm_ir.Ir.modul -> machine

(** Count one execution of the block with this id when profiling is
    on (free of fuel; shared with the {!Bytecode} tier). *)
val count_block : machine -> int -> unit

(** Record one resolved target of an indirect call site (free of fuel;
    shared with the {!Bytecode} tier). *)
val record_call_target : machine -> site:int -> Llvm_ir.Ir.func -> unit

(** Execute one function to completion (or unwinding).  A declaration
    runs the builtin of its name: [putchar], [print_int], [print_long],
    [print_double], [print_str], [print_newline], [exit], [abort], the
    [llvm_cxxeh_*] exception runtime, the [llvm_sjlj_*] and
    [llvm_pool*] runtimes, [llvm_deopt] and [llvm_bounds_check].
    @raise Memory.Trap on memory errors, division by zero, fuel
    exhaustion. *)
val exec_func : machine -> Llvm_ir.Ir.func -> rtval list -> outcome

(** {1 Shared evaluation helpers (used by the {!Bytecode} tier)} *)

(** Store a scalar at a pre-computed byte size. *)
val store_sized : machine -> int64 -> size:int -> rtval -> unit

(** Load a scalar of an already-resolved type. *)
val load_resolved : machine -> int64 -> Llvm_ir.Ltype.t -> rtval

(** Cast to an already-resolved target type. *)
val cast_resolved : rtval -> Llvm_ir.Ltype.t -> rtval

val const_rtval :
  machine -> Llvm_ir.Ltype.table -> Llvm_ir.Ir.const -> rtval

val func_address : machine -> Llvm_ir.Ir.func -> int64
val rt_binop : Llvm_ir.Ir.opcode -> rtval -> rtval -> rtval

(** A comparison's result, as {!rbool}. *)
val rt_cmp : Llvm_ir.Ir.opcode -> rtval -> rtval -> rtval

(** {1 Words}

    A value whose static type is an integer of 32 bits or fewer, or
    bool, is a word: the {!Bytecode} tier keeps it unboxed, as an
    immediate int holding {!Llvm_ir.Fold}'s canonical value (a bool as 0
    or 1).  Inside a function such a value always has its type's exact
    shape; only a call boundary (an argument or a call result, through a
    function pointer cast to a different type) can bring in another.
    Both tiers check there with {!word_of_rtval}. *)

(** Is this resolved type a word type? *)
val is_word : Llvm_ir.Ltype.t -> bool

(** The word a value carries into a slot of the given (resolved) word
    type.  The value must have that type's exact shape: [Rbool] for
    bool, or [Rint] of that very kind holding a canonical value.
    @raise Memory.Trap otherwise, with the one call-boundary text both
    tiers use. *)
val word_of_rtval : Llvm_ir.Ltype.t -> rtval -> int

(** The boxed form of a word of the given (resolved) word type. *)
val rtval_of_word : Llvm_ir.Ltype.t -> int -> rtval

val as_ptr : rtval -> int64
val as_int : rtval -> int64
val as_bool : rtval -> bool

type status =
  [ `Returned of rtval | `Unwound | `Exited of int | `Trapped of string ]

type run_result = {
  status : status;
  output : string;  (** everything the program printed *)
  instructions : int;  (** dynamic instruction count *)
}

(** A run's status as the tools print it: ["returned 42"],
    ["unwound"], ["exited 3"] or ["trapped: <why>"]. *)
val status_to_string : status -> string

val run_function :
  ?fuel:int -> machine -> Llvm_ir.Ir.func -> rtval list -> run_result

(** The one run entry: run [main] on an already-built machine, or trap
    when the module has none. *)
val run_loaded : ?fuel:int -> machine -> run_result

(** Run [main] on a fresh machine. *)
val run_main : ?fuel:int -> Llvm_ir.Ir.modul -> run_result

(** Did the run stop on the {!fuel_trap}? *)
val out_of_fuel : run_result -> bool

(** The exit code [lli] and [llvmd] report: main's integer return or the
    [exit()] code (low 8 bits), 0 for other returns, 120 unwound, 121
    trapped. *)
val exit_code : status -> int

val pp_rtval : Format.formatter -> rtval -> unit

(** {1 Comparing two runs: the one "behaviour changed" predicate} *)

type field = Status | Output | Instructions | Profile

(** ["status"], ["output"], ["instruction count"] or ["profile"]. *)
val field_name : field -> string

(** The [fields] (default: all four, in order) on which two runs, each
    with its block counts as {!Engine.run_main} returns them, differ.
    Statuses compare by value, a returned float by its bit pattern. *)
val differences :
  ?fields:field list ->
  run_result * (int, int) Hashtbl.t ->
  run_result * (int, int) Hashtbl.t ->
  field list
