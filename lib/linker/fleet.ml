(* The fleet simulator: thousands of heterogeneous end-user runs of one
   executable, each with the section 3.5 instrumentation on, each
   persisting its profile to disk; the per-run profiles are then merged
   — weighted by how many simulated machines saw that input — into the
   one aggregate that drives reoptimization (section 4.1).

   Heterogeneity comes from an integer "environment input" poked into a
   named global before main runs (the genprog dispatchers key their
   function-pointer selection on it).  Distinct inputs are executed
   once and weighted, so simulating a fleet of thousands costs only as
   many executions as there are distinct inputs.

   The merge goes through the on-disk binary format both ways — every
   aggregate is built from profiles that were actually written to and
   re-read from disk, the same path field data would take. *)

open Llvm_ir
open Ir
module Profile = Llvm_profile.Profile

type run = {
  input : int; (* the value poked into the environment global *)
  weight : int; (* simulated machines that executed this input *)
  result : Llvm_exec.Interp.run_result;
  deopts : int;
  file : string; (* where this run's profile persists *)
}

type report = {
  simulated : int; (* total weighted runs *)
  executed : int; (* distinct instrumented executions *)
  runs : run list; (* in schedule order *)
  aggregate : Profile.t;
}

let default_fuel = 1_000_000_000

(* Poke [value] into the int global [name], if the program has one.
   The machine's globals are already materialized, so this is a plain
   store over the initializer — exactly an environment variable read at
   startup. *)
let poke_input (mach : Llvm_exec.Interp.machine) (m : modul) (name : string)
    (value : int) : unit =
  match find_gvar m name with
  | None -> ()
  | Some g -> (
    match Llvm_ir.Ids.find_opt mach.Llvm_exec.Interp.globals g.gid with
    | None -> ()
    | Some addr ->
      Llvm_exec.Interp.store_sized mach addr ~size:4
        (Llvm_exec.Interp.Rint (Ltype.Int, Int64.of_int value)))

(* One simulated end-user run: instrumented (profiling on), under the
   given engine kind (the field default is [Tiered], which compiles each
   function to bytecode on its first call), optionally with a per-run
   input.  Returns the observable result, the run's own profile and its
   failed speculation guards. *)
let field_run ?(fuel = default_fuel) ?(kind = Llvm_exec.Engine.Tiered)
    ?input ?profile (m : modul) :
    Llvm_exec.Interp.run_result * Profile.t * int =
  let e = Llvm_exec.Engine.create ~profiling:true ?profile kind m in
  let mach = e.Llvm_exec.Engine.mach in
  (match input with
  | Some (name, v) -> poke_input mach m name v
  | None -> ());
  let result = Llvm_exec.Interp.run_loaded ~fuel mach in
  (result, Llvm_exec.Engine.profile e, Llvm_exec.Engine.deopts e)

let rec ensure_dir (dir : string) : unit =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then ensure_dir parent;
    Sys.mkdir dir 0o755
  end

(* Simulate a fleet: for every [(input, weight)] of the schedule, run
   the program once with that input, persist the run's profile under
   [dir], then re-load every file and fold it into the aggregate with
   its weight.  The aggregate is independent of schedule order by
   construction (saturating weighted merge). *)
let simulate ?fuel ?kind ?(input_global = "fleet_input") ~(dir : string)
    ~(schedule : (int * int) list) (m : modul) : report =
  ensure_dir dir;
  let runs =
    List.map
      (fun (input, weight) ->
        let result, p, deopts =
          field_run ?fuel ?kind ~input:(input_global, input) m
        in
        let file = Filename.concat dir (Printf.sprintf "run%d.llpf" input) in
        Profile.save file p;
        { input; weight; result; deopts; file })
      schedule
  in
  let aggregate = Profile.empty () in
  List.iter
    (fun r -> Profile.merge ~weight:r.weight aggregate (Profile.load r.file))
    runs;
  { simulated = List.fold_left (fun acc r -> acc + r.weight) 0 runs;
    executed = List.length runs;
    runs;
    aggregate }

(* A deterministic zipf-ish schedule over [distinct] inputs totalling
   roughly [total] runs: input k gets total/(k+1) machines — a few
   dominant configurations and a long tail, the shape fleets have. *)
let zipf_schedule ~(distinct : int) ~(total : int) : (int * int) list =
  let harmonic = ref 0.0 in
  for k = 1 to distinct do
    harmonic := !harmonic +. (1.0 /. float_of_int k)
  done;
  List.init distinct (fun k ->
      let share = 1.0 /. (float_of_int (k + 1) *. !harmonic) in
      (k + 1, max 1 (int_of_float (share *. float_of_int total))))
