(* Tiered execution engine (paper sections 3.4-3.5).

   Two tiers over one [Interp.machine], under three kind names:

   - [Interp_tier]  : every call tree-walks ([Interp.exec_func]).
   - [Bytecode_tier]: every defined function is compiled to [Bytecode]
     on its first call and executed in the dispatch loop.
   - [Tiered]       : the default, the same first-call compilation as
     [Bytecode_tier], which is what the paper's JIT does.  It is kept as
     its own name because the wire format, [lli] and [llvmd] name it.

   The engine runs verified modules, as [lli] and [llvmd] do.  It
   installs itself as [machine.dispatch], so every call site routes
   back through the tier decision.  Declarations (builtins) go to
   [Interp.exec_func]; under a bytecode kind every definition runs as
   bytecode, and a function of unverified IR the compiler cannot
   translate traps ([bytecode: ill-typed function <f>]).  A failed
   speculation guard needs nothing from the engine: its deopt arm
   re-runs the original indirect call, which dispatches like any other
   call. *)

open Llvm_ir
open Ir
open Interp

type kind = Interp_tier | Bytecode_tier | Tiered

let kind_name = function
  | Interp_tier -> "interp"
  | Bytecode_tier -> "bytecode"
  | Tiered -> "tiered"

type t = {
  mach : machine;
  compiled : (int, Bytecode.compiled) Hashtbl.t; (* func id -> bytecode *)
  (* aggregate profile for hot/cold block layout in [Bytecode.compile] *)
  layout_profile : Llvm_profile.Profile.t option;
  mutable promotions : string list; (* functions compiled, newest first *)
}

let get_compiled (e : t) (f : func) : Bytecode.compiled =
  match Hashtbl.find e.compiled f.fid with
  | c -> c
  | exception Not_found ->
    let c = Bytecode.compile ?profile:e.layout_profile e.mach f in
    e.promotions <- f.fname :: e.promotions;
    Hashtbl.replace e.compiled f.fid c;
    c

let create ?(profiling = false) ?profile (kind : kind) (m : modul) : t =
  let mach = Interp.create m in
  mach.profiling <- profiling;
  let e =
    { mach; compiled = Hashtbl.create 32; layout_profile = profile;
      promotions = [] }
  in
  (match kind with
  | Interp_tier -> () (* keep the default dispatch *)
  | Bytecode_tier | Tiered ->
    mach.dispatch <-
      (fun mach f args ->
        if is_declaration f then exec_func mach f args
        else Bytecode.exec mach (get_compiled e f) args));
  e

(* Functions compiled to bytecode, in compile order: first-call order
   unless [compile_all] ran (tests, bench). *)
let promotions (e : t) : string list = List.rev e.promotions

(* Failed speculation guards, counted by the machine. *)
let deopts (e : t) : int = e.mach.deopts

(* Always 0; see engine.mli. *)
let fast_ops (_ : t) : int = 0

(* Eagerly compile every definition (bench: time compilation apart from
   execution).  Returns (functions compiled, IR instructions compiled). *)
let compile_all (e : t) : int * int =
  List.fold_left
    (fun (nf, ni) f ->
      if is_declaration f then (nf, ni)
      else (nf + 1, ni + (get_compiled e f).Bytecode.src_instrs))
    (0, 0) e.mach.modul.mfuncs

(* -- Entry points ---------------------------------------------------------- *)

(* The run's profile in persistent, name-keyed form (section 3.5): the
   machine's block and call-target counts mapped through the module it
   executed.  Empty unless profiling was on. *)
let profile (e : t) : Llvm_profile.Profile.t =
  Llvm_profile.Profile.of_run e.mach.modul ~block_counts:e.mach.block_counts
    ~call_counts:e.mach.call_counts

(* [run_main] builds the machine, runs main, and reports traps and
   exit()s raised anywhere — including from global-initializer
   materialization during [create] — as a [run_result] rather than an
   exception. *)
let run_main ?fuel ?(profiling = false) ?profile (kind : kind) (m : modul) :
    run_result * (int, int) Hashtbl.t =
  let failed status = ({ status; output = ""; instructions = 0 }, Hashtbl.create 1) in
  match create ~profiling ?profile kind m with
  | exception Memory.Trap msg -> failed (`Trapped msg)
  | exception Exit_program code -> failed (`Exited code)
  | e -> (run_loaded ?fuel e.mach, e.mach.block_counts)
