(* Tests for the analysis library: dominators, loops, call graph, DSA,
   mod/ref. *)

open Llvm_ir
open Ir
open Llvm_analysis
open Llvm_minic

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_dominators () =
  let m = Samples.fact_module () in
  let f = Option.get (find_func m "fact") in
  let dom = Dominance.compute f in
  let entry = List.nth f.fblocks 0 in
  let loop = List.nth f.fblocks 1 in
  let body = List.nth f.fblocks 2 in
  let exit = List.nth f.fblocks 3 in
  check_bool "entry dominates all" true
    (List.for_all (Dominance.dominates dom entry) f.fblocks);
  check_bool "loop dominates body" true (Dominance.dominates dom loop body);
  check_bool "loop dominates exit" true (Dominance.dominates dom loop exit);
  check_bool "body does not dominate exit" false (Dominance.dominates dom body exit);
  (match Dominance.idom dom loop with
  | Some d -> check_bool "idom(loop) = entry" true (d == entry)
  | None -> Alcotest.fail "loop has no idom");
  (* dominance frontier of body is loop (the back edge join) *)
  let df = Dominance.frontiers dom in
  check_bool "DF(body) = {loop}" true
    (match df.(Cfg.index (Dominance.cfg dom) body) with
    | [ b ] -> b == loop
    | _ -> false)

let test_loops () =
  let m = Samples.fact_module () in
  let f = Option.get (find_func m "fact") in
  let dom = Dominance.compute f in
  let loops = Loops.find_loops dom f in
  check_int "one natural loop" 1 (List.length loops);
  let l = List.hd loops in
  Alcotest.(check string) "header" "loop" l.Loops.header.bname;
  check_int "two blocks in loop" 2 (List.length l.Loops.body);
  check_bool "body block in the loop" true (List.memq (List.nth f.fblocks 2) l.Loops.body);
  check_bool "entry not in the loop" false (List.memq (List.nth f.fblocks 0) l.Loops.body)

let test_callgraph () =
  let src =
    {| int leaf(int x) { return x + 1; }
       int mid(int x) { return leaf(x) * 2; }
       int even(int n);
       int odd(int n) { if (n == 0) return 0; return even(n - 1); }
       int even(int n) { if (n == 0) return 1; return odd(n - 1); }
       int main() { return mid(3) + even(4); } |}
  in
  let m = Codegen.compile_string src in
  let cg = Callgraph.compute m in
  let f name = Option.get (find_func m name) in
  let callees name =
    List.map (fun g -> g.fname) (Callgraph.node cg (f name)).Callgraph.callees
    |> List.sort compare
  in
  Alcotest.(check (list string)) "main calls" [ "even"; "mid" ] (callees "main");
  Alcotest.(check (list string)) "mid calls" [ "leaf" ] (callees "mid");
  check_bool "even/odd are recursive" true (Callgraph.is_recursive cg (f "even"));
  check_bool "leaf is not recursive" false (Callgraph.is_recursive cg (f "leaf"));
  (* SCC order: leaf before mid before main *)
  let order = List.concat (Callgraph.sccs cg) in
  let pos name =
    let rec go k = function
      | [] -> -1
      | g :: _ when g.fname = name -> k
      | _ :: rest -> go (k + 1) rest
    in
    go 0 order
  in
  check_bool "leaf before mid" true (pos "leaf" < pos "mid");
  check_bool "mid before main" true (pos "mid" < pos "main")

let test_verify_catches_ssa_violation () =
  (* hand-build a function where a use precedes its definition: the
     verifier rejects it *)
  let m = mk_module "bad_ssa" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m "f" Ltype.int_ [ ("x", Ltype.int_) ] in
  let x = Varg (List.hd f.fargs) in
  let second = Builder.append_new_block b f "second" in
  (* entry: ret (uses %v defined in unreached-after block) *)
  let v_instr = mk_instr ~name:"v" ~ty:Ltype.int_ Add [ x; x ] in
  append_instr second v_instr;
  ignore (Builder.build_ret b (Some (Vinstr v_instr)));
  Builder.position_at_end b second;
  ignore (Builder.build_ret b (Some x));
  Alcotest.(check (list string)) "violation found"
    [ "f/entry: use of %v by ret is not dominated by its definition" ]
    (List.map (Fmt.str "%a" Verify.pp_error) (Verify.verify_module m))

(* -- DSA ------------------------------------------------------------------- *)

let dsa_percent src =
  let m = Codegen.compile_string src in
  (* promote locals so the statistics measure real memory traffic, as the
     paper's compiled benchmarks do *)
  ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Sroa.pass m);
  ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Mem2reg.pass m);
  (Dsa.compute_stats m).Dsa.typed_percent

let test_dsa_disciplined_code () =
  (* clean struct usage: everything should be provably typed *)
  let p =
    dsa_percent
      {| struct Node { int value; struct Node* next; };
         int sum(struct Node* head) {
           int s = 0;
           while (head != null) { s += head->value; head = head->next; }
           return s;
         }
         int main() {
           struct Node* head = null;
           for (int i = 0; i < 5; i++) {
             struct Node* n = new struct Node;
             n->value = i; n->next = head; head = n;
           }
           return sum(head);
         } |}
  in
  check_bool (Printf.sprintf "disciplined code ~100%% typed (got %.1f)" p)
    true (p >= 99.0)

let test_dsa_void_star_ok () =
  (* casts through void* are fine when accesses stay consistent *)
  let p =
    dsa_percent
      {| struct Pair { int a; int b; };
         void* stash;
         int main() {
           struct Pair* p = new struct Pair;
           p->a = 1; p->b = 2;
           stash = (void*)p;
           struct Pair* q = (struct Pair*)stash;
           return q->a + q->b;
         } |}
  in
  check_bool (Printf.sprintf "void* round-trip stays typed (got %.1f)" p)
    true (p >= 80.0)

let test_dsa_custom_allocator_degrades () =
  (* a pool allocator hands out the same memory at different types:
     its node collapses and accesses become untyped *)
  let p =
    dsa_percent
      {| char pool[1024];
         int cursor = 0;
         char* my_alloc(int size) {
           char* p = &pool[0] + cursor;
           cursor += size;
           return p;
         }
         struct A { int x; int y; };
         struct B { double d; };
         int main() {
           struct A* a = (struct A*)my_alloc(8);
           struct B* b = (struct B*)my_alloc(8);
           a->x = 1; a->y = 2;
           b->d = 3.5;
           return a->x + a->y;
         } |}
  in
  check_bool
    (Printf.sprintf "custom allocator degrades type info (got %.1f)" p)
    true (p < 60.0)

let test_dsa_int_to_pointer_collapses () =
  let p =
    dsa_percent
      {| int main() {
           long addr = 1234;
           int* p = (int*)addr;
           int* q = new int;
           *q = 5;
           if (*q > 10) { return *p; }   // access through the bad pointer
           return *q;
         } |}
  in
  check_bool (Printf.sprintf "manufactured pointers untyped (got %.1f)" p)
    true (p < 100.0)

(* -- Mod/Ref ------------------------------------------------------------------ *)

let test_modref () =
  let src =
    {| int g = 0;
       int pure_add(int a, int b) { return a + b; }
       int reader() { return g; }
       void writer(int v) { g = v; }
       int calls_writer() { writer(3); return 1; }
       int main() { return pure_add(reader(), calls_writer()); } |}
  in
  let m = Codegen.compile_string src in
  (* promote first so locals don't count as memory traffic *)
  ignore (Llvm_transforms.Pass.run_pass Llvm_transforms.Mem2reg.pass m);
  let mr = Modref.compute m in
  let f name = Option.get (find_func m name) in
  check_bool "pure_add is pure" true (Modref.is_pure mr (f "pure_add"));
  check_bool "reader reads" true (Modref.may_read mr (f "reader"));
  check_bool "reader does not write" false (Modref.may_write mr (f "reader"));
  check_bool "writer writes" true (Modref.may_write mr (f "writer"));
  check_bool "calls_writer transitively writes" true
    (Modref.may_write mr (f "calls_writer"))

(* -- Value-range analysis ------------------------------------------------------ *)

let itv a b = Range.Itv (a, b)

let test_range_intervals () =
  let open Range in
  check_bool "join hulls" true (join (itv 1L 3L) (itv 5L 9L) = itv 1L 9L);
  check_bool "join bot is identity" true (join Bot (itv 2L 2L) = itv 2L 2L);
  check_bool "meet overlap" true (meet (itv 1L 5L) (itv 4L 9L) = itv 4L 5L);
  check_bool "meet disjoint is bot" true (meet (itv 1L 2L) (itv 4L 9L) = Bot);
  check_bool "subset" true (subset (itv 2L 3L) (itv 1L 4L));
  check_bool "not subset" false (subset (itv 0L 5L) (itv 1L 4L));
  check_bool "contains" true (contains (itv (-1L) 4L) 0L);
  check_bool "singleton" true (is_singleton (itv 7L 7L) = Some 7L);
  check_bool "add" true
    (binop Ltype.Int Add (itv 1L 3L) (itv 10L 20L) = itv 11L 23L);
  check_bool "mul takes corner extrema" true
    (binop Ltype.Int Mul (itv (-2L) 3L) (itv 4L 5L) = itv (-10L) 15L);
  check_bool "narrow add that can wrap goes to full" true
    (binop Ltype.Sbyte Add (itv 100L 120L) (itv 100L 120L)
    = full_of_kind Ltype.Sbyte);
  check_bool "div over positive divisors" true
    (binop Ltype.Int Div (itv 10L 20L) (itv 2L 5L) = itv 2L 10L);
  (* division only describes executions that complete, so a zero
     endpoint of the divisor is shaved off: [0,5] behaves as [1,5] *)
  check_bool "div shaves a zero divisor endpoint" true
    (binop Ltype.Int Div (itv 10L 10L) (itv 0L 5L) = itv 2L 10L);
  check_bool "div by a zero-straddling divisor is conservative" true
    (binop Ltype.Int Div (itv 10L 10L) (itv (-3L) 5L)
    = full_of_kind Ltype.Int);
  check_bool "shl is scaling" true
    (binop Ltype.Int Shl (itv 1L 3L) (itv 3L 3L) = itv 8L 24L);
  check_bool "exact mul ignores the kind bound" true
    (exact_binop Mul (itv 30000L 30000L) (itv 30000L 30000L)
    = Some (itv 900000000L 900000000L))

(* A rotated counting loop: the ascending pass must widen the induction
   variable instead of climbing one step per iteration, and the
   narrowing sweeps plus the branch guards must recover the loop
   bounds. *)
let test_range_loop () =
  let m = mk_module "rangeloop" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m "f" Ltype.int_ [] in
  let entry = Builder.insertion_block b in
  let cond = Builder.append_new_block b f "cond" in
  let body = Builder.append_new_block b f "body" in
  let done_ = Builder.append_new_block b f "done" in
  ignore (Builder.build_br b cond);
  Builder.position_at_end b cond;
  let i =
    Builder.build_phi b ~name:"i" Ltype.int_
      [ (Vconst (cint Ltype.Int 0L), entry) ]
  in
  let c = Builder.build_setlt b i (Vconst (cint Ltype.Int 100L)) in
  ignore (Builder.build_condbr b c body done_);
  Builder.position_at_end b body;
  let next = Builder.build_add b ~name:"next" i (Vconst (cint Ltype.Int 1L)) in
  ignore (Builder.build_br b cond);
  (match i with
  | Vinstr ip -> phi_add_incoming ip next body
  | _ -> assert false);
  Builder.position_at_end b done_;
  ignore (Builder.build_ret b (Some i));
  let rng = Range.analyze m in
  check_bool "i within [0,100] at the header" true
    (Range.subset (Range.range_at rng cond i) (itv 0L 100L));
  check_bool "i within [0,99] in the body" true
    (Range.subset (Range.range_at rng body i) (itv 0L 99L));
  check_bool "i = 100 at the exit" true
    (Range.range_at rng done_ i = itv 100L 100L)

(* Argument intervals join over every call site of an internal function;
   call results take the callee's return summary. *)
let test_range_interprocedural () =
  let m = mk_module "ranges_ipo" in
  let b = Builder.for_module m in
  let f =
    Builder.start_function b m ~linkage:Internal "double" Ltype.int_
      [ ("x", Ltype.int_) ]
  in
  let x = Varg (List.hd f.fargs) in
  let r = Builder.build_mul b x (Vconst (cint Ltype.Int 2L)) in
  ignore (Builder.build_ret b (Some r));
  let _main = Builder.start_function b m "main" Ltype.int_ [] in
  let c1 = Builder.build_call b (Vfunc f) [ Vconst (cint Ltype.Int 3L) ] in
  let c2 = Builder.build_call b (Vfunc f) [ Vconst (cint Ltype.Int 7L) ] in
  let s = Builder.build_add b c1 c2 in
  ignore (Builder.build_ret b (Some s));
  let rng = Range.analyze m in
  check_bool "argument joins the call sites" true
    (Range.range_of rng x = itv 3L 7L);
  check_bool "return summary doubles it" true
    (Range.return_range rng f = itv 6L 14L);
  check_bool "call results take the summary" true
    (Range.subset (Range.range_of rng c1) (itv 6L 14L)
    && Range.subset (Range.range_of rng c2) (itv 6L 14L));
  check_bool "downstream arithmetic composes" true
    (Range.subset (Range.range_of rng s) (itv 12L 28L))

(* Golden digest of every interval the analysis answers: per function,
   its return range, each argument's [range_of], and per instruction its
   [range_of] plus the [range_at] of each operand in the instruction's
   block.  The corpus is the bitcode golden corpus and Irgen seeds
   1..40, each analysed as built and again after -O2.  A storage or
   iteration-order change to [Range] must leave this digest unchanged. *)
let test_range_golden_digest () =
  let buf = Buffer.create (1 lsl 20) in
  let intervals = ref 0 in
  let add iv =
    incr intervals;
    (match iv with
    | Range.Bot -> Buffer.add_char buf '_'
    | Range.Itv (a, b) -> Printf.bprintf buf "%Ld,%Ld" a b);
    Buffer.add_char buf ' '
  in
  let digest_module label (m : modul) =
    let rng = Range.analyze m in
    Printf.bprintf buf "\n%s\n" label;
    List.iter
      (fun f ->
        Printf.bprintf buf "\n%s: " f.fname;
        add (Range.return_range rng f);
        List.iter (fun a -> add (Range.range_of rng (Varg a))) f.fargs;
        List.iter
          (fun b ->
            Buffer.add_char buf '\n';
            List.iter
              (fun i ->
                add (Range.range_of rng (Vinstr i));
                Array.iter
                  (function Vblock _ -> () | v -> add (Range.range_at rng b v))
                  i.operands;
                Buffer.add_char buf ';')
              b.instrs)
          f.fblocks)
      m.mfuncs
  in
  let both label m =
    digest_module label m;
    Llvm_transforms.Pipelines.optimize_module ~level:2 m;
    digest_module (label ^ " then -O2") m
  in
  List.iter (fun (label, m) -> both label m) (Suite_bitcode.golden_corpus ());
  for seed = 1 to 40 do
    both (Printf.sprintf "irgen %d" seed) (Llvm_fuzz.Irgen.gen_module seed)
  done;
  check_bool "intervals digested" true (!intervals > 100_000);
  Alcotest.(check string)
    "MD5 of every interval" "a8c3ea5c41594606d76d102a3f6ec808"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* -- Dataflow fixpoint termination under widening ------------------------------ *)

(* A lattice with an infinite ascending chain (a step counter) whose
   join widens to [Inf] past a bound, and a transfer that bumps the
   counter on every visit: without the widening the solver would climb
   one step per iteration around any cycle.  Termination with the facts
   pinned at [Inf] on every cycle block shows the widened joins reach a
   fixpoint on loop nests and on irreducible (multi-entry) cycles
   alike. *)
module CounterLattice = struct
  type fact = Cnt of int | Inf

  let bottom = Cnt 0
  let equal = ( = )

  let join a b =
    match (a, b) with
    | Inf, _ | _, Inf -> Inf
    | Cnt x, Cnt y ->
      let m = max x y in
      if m > 8 then Inf else Cnt m
end

module CounterFlow = Dataflow.Make (CounterLattice)

let bump = function
  | CounterLattice.Cnt n -> CounterLattice.Cnt (n + 1)
  | CounterLattice.Inf -> CounterLattice.Inf

let test_dataflow_widening_loop_nest () =
  let m = mk_module "loopnest" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m "f" Ltype.void [ ("c", Ltype.bool_) ] in
  let c = Varg (List.hd f.fargs) in
  let outer = Builder.append_new_block b f "outer" in
  let inner = Builder.append_new_block b f "inner" in
  let ibody = Builder.append_new_block b f "ibody" in
  let exit_ = Builder.append_new_block b f "exit" in
  ignore (Builder.build_br b outer);
  Builder.position_at_end b outer;
  ignore (Builder.build_condbr b c inner exit_);
  Builder.position_at_end b inner;
  ignore (Builder.build_condbr b c ibody outer);
  Builder.position_at_end b ibody;
  ignore (Builder.build_br b inner);
  Builder.position_at_end b exit_;
  ignore (Builder.build_ret b None);
  let res =
    CounterFlow.run ~direction:Dataflow.Forward
      ~boundary:(CounterLattice.Cnt 1)
      ~transfer:(fun _ fact -> bump fact)
      (Cfg.build f)
  in
  check_bool "outer header widened" true
    (CounterFlow.after res outer = CounterLattice.Inf);
  check_bool "inner header widened" true
    (CounterFlow.after res inner = CounterLattice.Inf);
  check_bool "exit widened too" true
    (CounterFlow.after res exit_ = CounterLattice.Inf)

let test_dataflow_widening_irreducible () =
  let m = mk_module "irreducible" in
  let b = Builder.for_module m in
  let f = Builder.start_function b m "f" Ltype.void [ ("c", Ltype.bool_) ] in
  let c = Varg (List.hd f.fargs) in
  (* a two-entry cycle: entry branches into both halves of a loop *)
  let a = Builder.append_new_block b f "a" in
  let bb = Builder.append_new_block b f "b" in
  ignore (Builder.build_condbr b c a bb);
  Builder.position_at_end b a;
  ignore (Builder.build_br b bb);
  Builder.position_at_end b bb;
  ignore (Builder.build_br b a);
  let res =
    CounterFlow.run ~direction:Dataflow.Forward
      ~boundary:(CounterLattice.Cnt 1)
      ~transfer:(fun _ fact -> bump fact)
      (Cfg.build f)
  in
  check_bool "first cycle block widened" true
    (CounterFlow.after res a = CounterLattice.Inf);
  check_bool "second cycle block widened" true
    (CounterFlow.after res bb = CounterLattice.Inf)

(* [Dominance.children] reads a table filled once by [compute]; it must
   return exactly what the definition gives: the reachable blocks whose
   immediate dominator is [b], in reverse postorder. *)
let test_dominator_children_match_definition () =
  let by_definition dom b =
    let cfg = Dominance.cfg dom in
    List.filter
      (fun c ->
        match Dominance.idom dom c with Some d -> d == b | None -> false)
      (List.init (Cfg.size cfg) (Cfg.block cfg))
  in
  let functions = ref 0 and edges = ref 0 in
  let check_module label (m : modul) =
    List.iter
      (fun f ->
        if not (is_declaration f) then begin
          incr functions;
          let dom = Dominance.compute f in
          List.iter
            (fun b ->
              let want = by_definition dom b in
              let got = Dominance.children dom b in
              edges := !edges + List.length got;
              if not (List.equal ( == ) want got) then
                Alcotest.failf "%s: %s: children of %s differ" label f.fname
                  b.bname)
            f.fblocks
        end)
      m.mfuncs
  in
  List.iter (fun (label, m) -> check_module label m)
    (Suite_bitcode.golden_corpus ());
  for seed = 1 to 40 do
    check_module (Printf.sprintf "irgen %d" seed) (Llvm_fuzz.Irgen.gen_module seed)
  done;
  check_bool "functions checked" true (!functions > 100);
  check_bool "tree edges checked" true (!edges > 1000)

(* [Cfg.build]'s dense form against the definitions it replaces: the
   blocks a walk over [Ir.successors] reaches from the entry, and
   [Ir.predecessors]. *)
let test_cfg_invariants () =
  let functions = ref 0 and edges = ref 0 in
  let check_func label f =
    let dom = Dominance.compute f in
    let cfg = Dominance.cfg dom in
    let fail what = Alcotest.failf "%s: %s: %s" label f.fname what in
    let successors_of b = match terminator b with Some t -> successors t | None -> [] in
    let rec visit seen b =
      if List.memq b seen then seen else List.fold_left visit (b :: seen) (successors_of b)
    in
    let reachable = visit [] (entry_block f) in
    let index_of bs = List.filter_map (fun b -> match Cfg.index cfg b with -1 -> None | k -> Some k) bs in
    if Cfg.size cfg <> List.length reachable then fail "reachable count";
    if not (Cfg.block cfg 0 == entry_block f) then fail "entry not at 0";
    for k = 0 to Cfg.size cfg - 1 do
      let b = Cfg.block cfg k in
      if Cfg.index cfg b <> k then fail ("index of " ^ b.bname);
      if not (List.memq b reachable) then fail (b.bname ^ " is not reachable");
      if Array.to_list (Cfg.preds cfg k) <> index_of (predecessors b) then
        fail ("preds of " ^ b.bname);
      if Array.to_list (Cfg.succs cfg k) <> index_of (successors_of b) then
        fail ("succs of " ^ b.bname);
      Array.iter
        (fun s ->
          incr edges;
          if not (k < s || Dominance.dominates dom (Cfg.block cfg s) b) then
            fail (Printf.sprintf "edge %s -> %s goes backward to a non-dominator" b.bname
                    (Cfg.block cfg s).bname))
        (Cfg.succs cfg k)
    done;
    if
      not
        (List.equal ( == ) (Cfg.unreachable cfg)
           (List.filter (fun b -> not (List.memq b reachable)) f.fblocks))
    then fail "unreachable blocks"
  in
  let check_module label (m : modul) =
    List.iter
      (fun f ->
        if not (is_declaration f) then begin
          incr functions;
          check_func label f
        end)
      m.mfuncs
  in
  List.iter (fun (label, m) -> check_module label m) (Suite_bitcode.golden_corpus ());
  for seed = 1 to 40 do
    check_module (Printf.sprintf "irgen %d" seed) (Llvm_fuzz.Irgen.gen_module seed)
  done;
  check_bool "functions checked" true (!functions > 100);
  check_bool "edges checked" true (!edges > 1000)

let tests =
  [ Alcotest.test_case "dominator tree and frontiers" `Quick test_dominators;
    Alcotest.test_case "cfg: dense form matches the definitions" `Quick
      test_cfg_invariants;
    Alcotest.test_case "dominator children match the idom definition" `Quick
      test_dominator_children_match_definition;
    Alcotest.test_case "natural loops" `Quick test_loops;
    Alcotest.test_case "call graph and SCCs" `Quick test_callgraph;
    Alcotest.test_case "verifier catches ssa violations" `Quick
      test_verify_catches_ssa_violation;
    Alcotest.test_case "dsa: disciplined code is typed" `Quick test_dsa_disciplined_code;
    Alcotest.test_case "dsa: void* round trips stay typed" `Quick test_dsa_void_star_ok;
    Alcotest.test_case "dsa: custom allocators degrade" `Quick
      test_dsa_custom_allocator_degrades;
    Alcotest.test_case "dsa: int-to-pointer collapses" `Quick
      test_dsa_int_to_pointer_collapses;
    Alcotest.test_case "mod/ref" `Quick test_modref;
    Alcotest.test_case "range: interval algebra" `Quick test_range_intervals;
    Alcotest.test_case "range: loop widening and narrowing" `Quick
      test_range_loop;
    Alcotest.test_case "range: interprocedural summaries" `Quick
      test_range_interprocedural;
    Alcotest.test_case "range: golden interval digest" `Quick
      test_range_golden_digest;
    Alcotest.test_case "dataflow: widening terminates a loop nest" `Quick
      test_dataflow_widening_loop_nest;
    Alcotest.test_case "dataflow: widening terminates an irreducible cycle"
      `Quick test_dataflow_widening_irreducible ]
