(* Exceptions: reproduces Figures 1-3 of the paper.

   Figure 1 is a C++ fragment where a local object's destructor must run
   if a call throws; Figure 2 shows the lowering to invoke/unwind;
   Figure 3 shows `throw 1` becoming calls into a small runtime library
   (the llvm_cxxeh runtime) followed by `unwind`.

   MiniC has no destructors, so the cleanup is written explicitly in the
   handler — the generated IR has exactly the paper's shape: the call
   becomes an `invoke`, the cleanup block runs the "destructor" and then
   continues unwinding with `unwind`.

   Run with:  dune exec examples/exceptions.exe *)

let source =
  {|
extern void print_str(char* s);
extern void print_int(int x);

struct AClass { int resource; };

static struct AClass* the_obj = null;

// "constructor" and "destructor" for the paper's AClass
struct AClass* aclass_create() {
  struct AClass* o = new struct AClass;
  o->resource = 1;
  print_str("[ctor]");
  return o;
}
void aclass_destroy(struct AClass* o) {
  print_str("[dtor]");
  o->resource = 0;
  delete o;
}

// Figure 1's func(): "might throw; must execute destructor"
void func(int x) {
  if (x > 3) throw 42;   // Figure 3: runtime-library call + unwind
  print_str("[func ok]");
}

// Figure 1's enclosing scope, with the destructor made explicit:
// try { AClass Obj; func(); } — on unwind the object is destroyed and
// unwinding continues (the paper's Figure 2 control flow).
void scope(int x) {
  struct AClass* obj = aclass_create();
  try {
    func(x);           // becomes: invoke void %func(...) to ... unwind to ...
  } catch (double never) {
    // no double is ever thrown: this handler only exists so the int
    // exception keeps unwinding after the cleanup, like Figure 2
    print_str("[unreachable]");
  }
  aclass_destroy(obj);  // normal-path destruction
}

int run(int argc) {
  try {
    scope(argc);
    print_str("[no throw]");
  } catch (int e) {
    print_str("[caught ");
    print_int(e);
    print_str("]");
  }
  return 0;
}

// lli runs a parameterless main: both paths, as the runs below take them
int main() {
  run(1);
  return run(5);
}
|}

let () =
  let m = Llvm_minic.Codegen.compile_string ~name:"figures_1_to_3" source in
  Llvm_ir.Verify.assert_valid m;

  (* Show the lowering of the paper's figures. *)
  let show name =
    match Llvm_ir.Ir.find_func m name with
    | Some f ->
      Fmt.pr "--- %s ---@.%s@." name
        (Llvm_ir.Printer.func_to_string m.Llvm_ir.Ir.mtypes f)
    | None -> ()
  in
  Fmt.pr "Figure 3's shape (throw = runtime call + unwind):@.";
  show "func";
  Fmt.pr "Figure 2's shape (invoke ... to ... unwind to ...):@.";
  show "scope";

  (* Execute both paths. *)
  let run argc =
    let mach = Llvm_exec.Interp.create m in
    let entry = Option.get (Llvm_ir.Ir.find_func m "run") in
    let r =
      Llvm_exec.Interp.run_function mach entry
        [ Llvm_exec.Interp.Rint (Llvm_ir.Ltype.Int, Int64.of_int argc) ]
    in
    Fmt.pr "run(%d): %s@." argc r.Llvm_exec.Interp.output
  in
  run 1; (* no throw: ctor, func ok, dtor, no throw *)
  run 5; (* throw: ctor, caught 42 — and the handler in scope() re-unwinds *)

  (* The interprocedural angle (section 4.1.2): after inlining, unwinds
     whose target is in the same function become direct branches, and
     invokes of functions that cannot throw become plain calls. *)
  Llvm_transforms.Pipelines.optimize_module ~level:3 m;
  let invokes = ref 0 and unwinds = ref 0 in
  List.iter
    (fun f ->
      Llvm_ir.Ir.iter_instrs
        (fun i ->
          match i.Llvm_ir.Ir.iop with
          | Llvm_ir.Ir.Invoke -> incr invokes
          | Llvm_ir.Ir.Unwind -> incr unwinds
          | _ -> ())
        f)
    m.Llvm_ir.Ir.mfuncs;
  Fmt.pr "after link-time optimization: %d invokes, %d unwinds remain@."
    !invokes !unwinds;
  run 1;
  run 5;
  Emit_sample.emit "exceptions" m
