(** The tiered execution engine (paper sections 3.4-3.5): one
    [Interp.machine], two tiers under three kind names.

    [Interp_tier] tree-walks every call; [Bytecode_tier] compiles
    every defined function to {!Bytecode} on its first call.  [Tiered],
    the default, is that same first-call policy under the name the wire
    format and the tools use.

    The engine runs verified modules ([lli] and [llvmd] verify
    everything they run).  It installs itself as [machine.dispatch], so
    every call site routes back through the tier decision; declarations
    (builtins) run in the interpreter, and under a bytecode kind every
    definition runs as bytecode.  A function of unverified IR that the
    compiler cannot translate ends the run with the trap
    [bytecode: ill-typed function <f>], reported by {!run_main} as a
    [`Trapped] result.  Compilation runs no analysis of the module:
    every load, store and division compiles to the guarded op the
    interpreter runs. *)

type kind = Interp_tier | Bytecode_tier | Tiered

val kind_name : kind -> string

type t = {
  mach : Interp.machine;
  compiled : (int, Bytecode.compiled) Hashtbl.t;  (** func id -> bytecode *)
  layout_profile : Llvm_profile.Profile.t option;
      (** aggregate profile for hot/cold block layout *)
  mutable promotions : string list;  (** functions compiled, newest first *)
}

(** Materialize the module and install the tier dispatch.  Block and
    call-target counters run only when [profiling] is set.  [profile]
    drives hot/cold block layout in {!Bytecode.compile} (pure layout;
    never changes behaviour).

    The deopt protocol: a failed speculation guard calls the
    [llvm_deopt] builtin, which counts it ({!deopts}), and the guard's
    deopt arm then re-runs the speculated site's original indirect
    call.  That call dispatches like any other, so under a bytecode
    kind its target is compiled on its first call and runs as
    bytecode. *)
val create :
  ?profiling:bool ->
  ?profile:Llvm_profile.Profile.t ->
  kind ->
  Llvm_ir.Ir.modul ->
  t

(** Functions compiled to bytecode, in compile order: first-call order
    unless {!compile_all} ran.  Empty under [Interp_tier]. *)
val promotions : t -> string list

(** Failed speculation guards ([llvm_deopt] executions). *)
val deopts : t -> int

(** Always 0: the bytecode tier has no unguarded ops.  It exists only
    because [e2ebench/toolchain.ml] reads it for its [engine.fast_ops]
    count. *)
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
  ?profiling:bool ->
  ?profile:Llvm_profile.Profile.t ->
  kind ->
  Llvm_ir.Ir.modul ->
  Interp.run_result * (int, int) Hashtbl.t
