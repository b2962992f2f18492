(* SAFECode: the safe execution environment of paper section 4.1.2,
   in miniature.

   SAFECode "relies on the type information in LLVM ... to check and
   enforce type safety", "relies on the array type information ... to
   enforce array bounds safety, and uses interprocedural analysis to
   eliminate runtime bounds checks", and replaces garbage collection
   with "a variant of automatic pool allocation".  This example runs
   that whole recipe on one program:

   1. DSA reports how much of the program is provably typed;
   2. every variable array index gets a runtime bounds check;
   3. static analysis eliminates the provably safe checks;
   4. non-escaping heap data moves into pools (bulk deallocation, the
      memory-management half of the SAFECode story);
   5. the hardened program still runs, and a corrupted index now traps
      instead of silently reading out of bounds.

   Run with:  dune exec examples/safecode.exe *)

let source =
  {|
extern void print_str(char* s);
extern void print_int(int x);

struct Packet { int size; int payload[14]; struct Packet* next; };

static int checksum(struct Packet* p) {
  int acc = 0;
  for (int i = 0; i < p->size; i++) acc ^= p->payload[i];   // size <= 14?
  return acc;
}

static int process(int npackets, int corrupt) {
  struct Packet* head = null;
  for (int k = 0; k < npackets; k++) {
    struct Packet* p = new struct Packet;
    p->size = 8 + (k % 7);              // always in bounds
    for (int i = 0; i < p->size; i++) p->payload[i] = k * 31 + i;
    p->next = head;
    head = p;
  }
  if (corrupt != 0) head->size = 99;    // attacker-controlled length
  int total = 0;
  struct Packet* it = head;
  while (it != null) { total ^= checksum(it); it = it->next; }
  return total & 65535;
}

int run(int corrupt) {
  int r = process(6, corrupt);
  print_str("total=");
  print_int(r);
  return r;
}

// lli runs a parameterless main: the honest run, then the corrupted
// one, which traps at its bounds check
int main() {
  run(0);
  return run(1);
}
|}

let () =
  let m = Llvm_minic.Codegen.compile_string ~name:"safecode" source in
  Llvm_ir.Verify.assert_valid m;
  ignore
    (Llvm_transforms.Pass.run_pass Llvm_transforms.Mem2reg.pass m);

  (* 1. the type-safety report *)
  let dsa_stats = Llvm_analysis.Dsa.compute_stats m in
  Fmt.pr "DSA: %.1f%% of static memory accesses provably typed@."
    dsa_stats.Llvm_analysis.Dsa.typed_percent;

  (* 2 + 3. bounds checking with static elimination *)
  let inserted = Llvm_transforms.Boundscheck.insert m in
  let eliminated = Llvm_transforms.Boundscheck.eliminate m in
  Fmt.pr "bounds checks: %d inserted, %d eliminated statically, %d remain@."
    inserted eliminated (inserted - eliminated);

  (* 4. pool allocation for the non-escaping packet list *)
  let pools = Llvm_transforms.Poolalloc.run m in
  Fmt.pr "pool allocation: %d pools, %d allocation sites segregated@."
    pools.Llvm_transforms.Poolalloc.pools_created
    pools.Llvm_transforms.Poolalloc.mallocs_pooled;
  Llvm_ir.Verify.assert_valid m;
  Emit_sample.emit "safecode" m;

  (* 5. behaviour: intact input runs; corrupted input traps at the check *)
  let run corrupt =
    let mach = Llvm_exec.Interp.create m in
    let entry = Option.get (Llvm_ir.Ir.find_func m "run") in
    Llvm_exec.Interp.run_function mach entry
      [ Llvm_exec.Interp.Rint (Llvm_ir.Ltype.Int, corrupt) ]
  in
  (match (run 0L).Llvm_exec.Interp.status with
  | `Returned v ->
    Fmt.pr "honest run: returned %a@." Llvm_exec.Interp.pp_rtval v
  | _ -> failwith "honest run failed");
  match (run 1L).Llvm_exec.Interp.status with
  | `Trapped msg -> Fmt.pr "corrupted run: TRAPPED (%s) — memory safe@." msg
  | `Returned v ->
    Fmt.pr "corrupted run returned %a (should have trapped!)@."
      Llvm_exec.Interp.pp_rtval v;
    exit 1
  | _ -> failwith "unexpected outcome"
