(** The tiered execution engine (paper sections 3.4-3.5): one
    [Interp.machine], three tiers.

    [Interp_tier] tree-walks every call; [Bytecode_tier] lazily
    compiles every defined function to {!Bytecode} on first call;
    [Tiered] starts in the interpreter and promotes a function to
    bytecode once its entry-block execution count crosses the hot
    threshold.  The engine installs itself as [machine.dispatch], so
    call sites in either tier route back through the tier decision and
    interpreter frames can call promoted functions (and vice versa). *)

type kind = Interp_tier | Bytecode_tier | Tiered

val kind_name : kind -> string
val default_hot_threshold : int

type t = {
  mach : Interp.machine;
  kind : kind;
  hot_threshold : int;
  compiled : (int, Bytecode.compiled) Hashtbl.t;  (** func id -> bytecode *)
  ranges : Llvm_analysis.Range.t Lazy.t;
      (** whole-module value ranges, forced by {!Bytecode.compile} at
          the first candidate for a fast op; never forced when no
          compiled function has one *)
  layout_profile : Llvm_profile.Profile.t option;
      (** aggregate profile for hot/cold block layout *)
  mutable promotions : (string * int) list;
  mutable deopt_falls : int;
}

(** Materialize the module and install the tier dispatch.  [Tiered]
    forces profiling on (it needs entry counts), keeping profiles
    identical across tiers.  [profile] drives hot/cold block layout in
    {!Bytecode.compile} (pure layout; never changes behaviour).

    The deopt protocol: a failed speculation guard calls the
    [llvm_deopt] builtin, which sets [Interp.machine.deopt_pending];
    the engine's dispatch consumes the flag and runs the next call —
    the speculated site's original indirect call — in the interpreter
    tier.  Tiers are bit-for-bit identical, so the fallback is purely
    an execution-strategy decision. *)
val create :
  ?hot_threshold:int ->
  ?profiling:bool ->
  ?profile:Llvm_profile.Profile.t ->
  kind ->
  Llvm_ir.Ir.modul ->
  t

(** Promotions in promotion order: function name, entry count when
    promoted. *)
val promotions : t -> (string * int) list

val compiled_count : t -> int

(** Failed speculation guards ([llvm_deopt] executions). *)
val deopts : t -> int

(** Calls the engine re-routed to the interpreter tier after a guard
    failure. *)
val deopt_falls : t -> int

(** Guarded ops compiled to range-proven fast ops so far. *)
val fast_ops : t -> int

(** Eagerly compile every definition; returns (functions compiled, IR
    instructions compiled). *)
val compile_all : t -> int * int

(** The run so far as a persistent, name-keyed profile
    ({!Llvm_profile.Profile.of_run} over the machine's block and
    call-target counts).  Empty unless profiling is on. *)
val profile : t -> Llvm_profile.Profile.t

(** Build the machine, run [main], and report traps and [exit()]s
    raised anywhere — including during global-initializer
    materialization — as a result rather than an exception.  Also
    returns the run's per-block-id execution counts, the strictest form
    for comparing runs of one module across tiers (empty unless
    profiling is on, or when the machine could not be built). *)
val run_main :
  ?fuel:int ->
  ?hot_threshold:int ->
  ?profiling:bool ->
  ?profile:Llvm_profile.Profile.t ->
  kind ->
  Llvm_ir.Ir.modul ->
  Interp.run_result * (int, int) Hashtbl.t
