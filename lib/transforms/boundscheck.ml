(* SAFECode-style array bounds checking (paper sections 3.3 and 4.1.2).

   The paper lists "array bounds check elimination [28]" among the
   link-time interprocedural transformations, and describes SAFECode
   relying on "the array type information in LLVM to enforce array
   bounds safety ... using interprocedural analysis to eliminate runtime
   bounds checks in many cases".

   Two passes:
   - [insert_pass] instruments every getelementptr that indexes a sized
     array with a non-constant index: a call to the runtime primitive
     `llvm_bounds_check(index, length)` which traps when index >= length
     (unsigned).  Constant in-bounds indices need no check; constant
     out-of-bounds indices are left to trap at the access itself.
   - [elim_pass] removes a check when the {!Llvm_analysis.Range}
     interval of its index at the check site lies within [0, n) (or is
     empty: the check never runs), when the index is a load of a
     never-initialized slot, or when a check of the same index against
     the same or a smaller bound dominates it. *)

open Llvm_ir
open Ir
open Llvm_analysis

let runtime_name = "llvm_bounds_check"

let runtime_decl (m : modul) : func =
  match find_func m runtime_name with
  | Some f -> f
  | None ->
    let f =
      mk_func ~linkage:External ~name:runtime_name ~return:Ltype.Void
        ~params:[ ("index", Ltype.long); ("length", Ltype.long) ]
        ()
    in
    add_func m f;
    f


(* -- insertion ---------------------------------------------------------------- *)

let insert (m : modul) : int =
  let checker = runtime_decl m in
  let count = ref 0 in
  List.iter
    (fun f ->
      if (not (is_declaration f)) && not (f == checker) then
        iter_instrs
          (fun i ->
            if i.iop = Gep then
              List.iter
                (fun (idx, n) ->
                  match idx with
                  | Vconst (Cint _) -> ()
                  | _ ->
                    let as_long =
                      if Ir.type_of m.mtypes idx = Ltype.long then idx
                      else begin
                        let c = mk_instr ~ty:Ltype.long Cast [ idx ] in
                        insert_before ~point:i c;
                        Vinstr c
                      end
                    in
                    let call =
                      mk_instr ~ty:Ltype.Void Call
                        [ Vfunc checker; as_long;
                          Vconst (cint Ltype.Long (Int64.of_int n)) ]
                    in
                    insert_before ~point:i call;
                    incr count)
                (Builder.gep_array_indices m.mtypes i))
          f)
    m.mfuncs;
  !count

(* -- elimination --------------------------------------------------------------- *)

(* [v] without the widening integer casts around it. *)
let rec strip_widening (table : Ltype.table) (v : value) : value =
  match v with
  | Vinstr i when i.iop = Cast -> (
    match (Ir.type_of table i.operands.(0), i.ity) with
    | Ltype.Integer from_k, Ltype.Integer to_k
      when Ltype.int_bits to_k >= Ltype.int_bits from_k ->
      strip_widening table i.operands.(0)
    | _ -> v)
  | v -> v

let is_check (checker : func) (i : instr) : (value * int64) option =
  match i.iop with
  | Call -> (
    match call_callee i with
    | Vfunc f when f == checker -> (
      match i.operands.(2) with
      | Vconst (Cint (_, n)) -> Some (i.operands.(1), n)
      | _ -> None)
    | _ -> None)
  | _ -> None

let eliminate (m : modul) : int =
  match find_func m runtime_name with
  | None -> 0
  | Some checker ->
    let removed = ref 0 in
    (* loads proven to read never-initialized stack slots: indexing by
       such an undef value is undefined behaviour regardless of the
       check, so guarding it buys nothing (the lint reports the real
       bug as L001) *)
    let undef = Lint.undef_loads m in
    let is_undef_index idx =
      match strip_widening m.mtypes idx with
      | Vinstr i -> Hashtbl.mem undef i.iid
      | _ -> false
    in
    (* the index's value range at the check: joins over phis and
       selects, branch guards, loop induction variables and argument
       ranges propagated across calls; computed on first demand *)
    let rng = lazy (Range.analyze m) in
    let range_proves (b : block) (idx : value) (n : int64) : bool =
      match Range.range_at (Lazy.force rng) b idx with
      | Range.Bot -> true (* the check is never executed *)
      | Range.Itv (lo, hi) -> lo >= 0L && hi < n
    in
    List.iter
      (fun f ->
        if not (is_declaration f) then begin
          let dom = Dominance.compute f in
          (* dominator-tree walk with the set of live checks in scope *)
          let rec walk (b : block) (in_scope : (value * int64) list) =
            let scope = ref in_scope in
            let dead = ref [] in
            List.iter
              (fun i ->
                match is_check checker i with
                | Some (idx, n) ->
                  let redundant =
                    is_undef_index idx
                    || List.exists
                         (fun (idx', n') -> value_equal idx idx' && n' <= n)
                         !scope
                    || range_proves b idx n
                  in
                  if redundant then begin
                    dead := i :: !dead;
                    incr removed
                  end
                  else scope := (idx, n) :: !scope
                | None -> ())
              b.instrs;
            List.iter erase_instr !dead;
            List.iter (fun c -> walk c !scope) (Dominance.children dom b)
          in
          if f.fblocks <> [] then walk (entry_block f) []
        end)
      m.mfuncs;
    (* drop the declaration when no checks remain *)
    (match find_func m runtime_name with
    | Some f when f.fuses = [] -> remove_func m f
    | _ -> ());
    !removed

let insert_pass =
  Pass.make ~name:"boundscheck-insert"
    ~description:"instrument variable array indices with runtime checks"
    (fun m -> insert m > 0)

let elim_pass =
  Pass.make ~name:"boundscheck-elim"
    ~description:"remove provably redundant array bounds checks"
    (fun m -> eliminate m > 0)
