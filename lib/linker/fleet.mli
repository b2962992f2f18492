(** The fleet simulator (paper section 4.1's lifelong loop at scale):
    many heterogeneous end-user runs of one executable, instrumented
    per section 3.5, each persisting its profile to disk; the per-run
    profiles are merged — weighted by machine count — into the
    aggregate that drives reoptimization.

    Heterogeneity comes from an integer environment input poked into a
    named global before [main] (the genprog dispatchers key their
    function-pointer selection on it).  Every aggregate is built from
    profiles re-read from disk, exercising the binary format on the
    same path field data would take. *)

type run = {
  input : int;  (** the value poked into the environment global *)
  weight : int;  (** simulated machines that executed this input *)
  result : Llvm_exec.Interp.run_result;
  deopts : int;
  file : string;  (** where this run's profile persists *)
}

type report = {
  simulated : int;  (** total weighted runs *)
  executed : int;  (** distinct instrumented executions *)
  runs : run list;  (** in schedule order *)
  aggregate : Llvm_profile.Profile.t;
}

val default_fuel : int

(** One simulated end-user run: instrumented (profiling on), under
    [kind] (default [Tiered]: first-call bytecode compilation), with
    [input = (global, value)] poked into the program's environment
    global first, and [profile] (if any) driving hot/cold block layout.
    Returns the result, the run's own one-run profile, and the run's
    failed-guard count. *)
val field_run :
  ?fuel:int ->
  ?kind:Llvm_exec.Engine.kind ->
  ?input:string * int ->
  ?profile:Llvm_profile.Profile.t ->
  Llvm_ir.Ir.modul ->
  Llvm_exec.Interp.run_result * Llvm_profile.Profile.t * int

(** [simulate ~dir ~schedule m] runs the program once per distinct
    [(input, weight)] of the schedule, persists each run's profile
    under [dir] ([run<input>.llpf]), and merges the re-loaded files
    into the weighted aggregate.  Order-independent by construction. *)
val simulate :
  ?fuel:int ->
  ?kind:Llvm_exec.Engine.kind ->
  ?input_global:string ->
  dir:string ->
  schedule:(int * int) list ->
  Llvm_ir.Ir.modul ->
  report

(** A deterministic zipf-ish schedule over [distinct] inputs totalling
    roughly [total] simulated runs: a few dominant configurations and
    a long tail. *)
val zipf_schedule : distinct:int -> total:int -> (int * int) list
