(* Redundancy elimination by dominator-scoped value numbering.

   Pure instructions (arithmetic, comparisons, geps, casts, selects) with
   identical opcodes and operands are merged when one dominates the
   other.  SSA makes the def-use graph explicit, which is what makes this
   "extremely fast" in the paper's terms (section 4.1.4): keys are just
   operand identities, no dataflow analysis is required. *)

open Llvm_ir
open Ir
open Llvm_analysis

let pure_op = function
  | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | SetEQ | SetNE
  | SetLT | SetGT | SetLE | SetGE | Gep | Cast | Select ->
    true
  | Ret | Br | Switch | Invoke | Unwind | Malloc | Free | Alloca | Load
  | Store | Phi | Call ->
    false

(* Keys are structural: an opcode, a result type and one key per
   operand.  SSA values key by their unique ids; constants key by their
   structure together with their types, so [cast ulong -1 to double] and
   [cast long -1 to double] stay apart.  Floats key by their bits, which
   keeps [0.0] and [-0.0] apart too. *)
type const_key =
  | Kbool of bool
  | Kint of Ltype.t * int64
  | Kfloat of Ltype.t * int64
  | Knull of Ltype.t
  | Kundef of Ltype.t
  | Kzero of Ltype.t
  | Karray of Ltype.t * const_key list
  | Kstruct of Ltype.t * const_key list
  | Kgvar of int
  | Kfunc_addr of int
  | Kcast of Ltype.t * const_key

type operand_key =
  | Kconst of const_key
  | Kinstr of int
  | Karg of int
  | Kglobal of int
  | Kfunc of int
  | Kblock of int

let rec const_key (c : const) : const_key =
  match c with
  | Cbool b -> Kbool b
  | Cint (t, v) -> Kint (t, v)
  | Cfloat (t, f) -> Kfloat (t, Int64.bits_of_float f)
  | Cnull t -> Knull t
  | Cundef t -> Kundef t
  | Czero t -> Kzero t
  | Carray (t, cs) -> Karray (t, List.map const_key cs)
  | Cstruct (t, cs) -> Kstruct (t, List.map const_key cs)
  | Cgvar g -> Kgvar g.gid
  | Cfunc f -> Kfunc_addr f.fid
  | Ccast (t, c) -> Kcast (t, const_key c)

let operand_key (v : value) : operand_key =
  match v with
  | Vconst c -> Kconst (const_key c)
  | Vinstr i -> Kinstr i.iid
  | Varg a -> Karg a.aid
  | Vglobal g -> Kglobal g.gid
  | Vfunc f -> Kfunc f.fid
  | Vblock b -> Kblock b.bid

let commutative = function
  | Add | Mul | And | Or | Xor | SetEQ | SetNE -> true
  | _ -> false

type key = opcode * Ltype.t * operand_key list

let instr_key (i : instr) : key =
  let ops = Array.to_list (Array.map operand_key i.operands) in
  let ops = if commutative i.iop then List.sort compare ops else ops in
  (i.iop, i.ity, ops)

let run_function (f : func) : bool =
  let dom = Dominance.compute f in
  let changed = ref false in
  (* scoped hash table: key -> available instr, with an undo log per
     dominator-tree scope *)
  let available : (key, instr) Hashtbl.t = Hashtbl.create 256 in
  let rec walk (b : block) =
    let undo = ref [] in
    List.iter
      (fun i ->
        if pure_op i.iop && i.ity <> Ltype.Void then begin
          let key = instr_key i in
          match Hashtbl.find_opt available key with
          | Some leader ->
            replace_all_uses_with (Vinstr i) (Vinstr leader);
            erase_instr i;
            changed := true
          | None ->
            Hashtbl.replace available key i;
            undo := key :: !undo
        end)
      b.instrs;
    List.iter walk (Dominance.children dom b);
    List.iter (fun key -> Hashtbl.remove available key) !undo
  in
  if not (is_declaration f) then walk (entry_block f);
  !changed

let pass =
  Pass.function_pass ~name:"gvn"
    ~description:"dominator-scoped redundancy elimination (value numbering)"
    run_function
