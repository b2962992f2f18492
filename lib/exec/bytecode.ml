(* The baseline JIT tier (paper section 3.4).

   [compile] translates one function from the IR graph into a flat,
   register-based bytecode: every instruction and argument gets a fixed
   register slot, constants are evaluated once, branch and call targets
   are resolved to code offsets, getelementptr address arithmetic is
   folded to precomputed offsets and scales, and phi nodes are lowered
   to parallel copies on dedicated edge stubs.  [exec] then runs that
   bytecode in a tight dispatch loop with no hashtable lookups or list
   traversals on the hot path.

   The instruction set is typed (section 2.2), so the compiler knows
   each value's type before it runs, and an activation has two register
   files.  A value whose type is an integer of 32 bits or fewer, or
   bool, is a "word" (see [Interp.is_word]): it lives unboxed in an
   [int array], where storing it neither allocates nor needs a write
   barrier, and word constants sit in that file from the start.  Every
   other value is a boxed [rtval].  Arithmetic, compares, casts,
   selects, phi copies, loads and stores of words have word arms that
   run [Fold]'s word table; any other op reads a word directly or boxes
   it once (call arguments, [ret]).  A word enters from outside only as
   an argument or a call result, through [Interp.word_of_rtval], the
   check the interpreter makes at the same points.

   Semantics are shared with the tree-walking interpreter down to the
   helper functions ([Interp.rt_binop], [Fold.word_binop_exn],
   [Interp.load_resolved], ...), so the two tiers are bit-for-bit
   comparable: same outputs, same traps, same fuel accounting (one unit
   per executed IR instruction, with phi copies and profiling hooks
   free, exactly like [Interp.exec_func]), and same block-execution
   profiles.  Every load, store and division takes the interpreter's
   guarded path: removing checks with value ranges is the work of the
   offline passes (rangeprop and bounds-check elimination), not of the
   translator.

   The tier runs verified modules: every defined function of one
   compiles to this single form, and every activation runs on freshly
   allocated register files.  Only unverified IR can make a function
   the compiler cannot translate, and that ends the run with a trap. *)

open Llvm_ir
open Ir
open Interp
module Ids = Llvm_ir.Ids

type operand =
  | Reg of int (* boxed register slot *)
  | Cst of int (* constant-pool index *)
  | Wrd of int * Ltype.t (* word register slot, and its resolved word type *)

type callee =
  | Direct of func
  | Indirect of operand * int (* dynamic callee, call-site instr id *)

type gstep =
  | Goff of int (* constant byte offset *)
  | Gscale of operand * int (* index operand times element size *)

type bc =
  (* free (no fuel): bookkeeping that has no IR-instruction counterpart *)
  | Prof of int (* block id: profile hook at every block head *)
  | Copy of int * operand (* boxed phi-lowering move *)
  | Wmov of int * int (* word phi-lowering move *)
  | Jmp of int (* edge-stub tail jump *)
  (* one fuel unit each: real IR instructions.  The W ops read and write
     word registers only. *)
  | Wbin of opcode * Ltype.int_kind * int * int * int (* kind, dst, a, b *)
  | Wcmp of opcode * Ltype.int_kind * int * int * int
  | Wcast of Ltype.t * int * int (* word target type, dst, src *)
  | Wsel of int * int * int * int
  | Wload of Ltype.t * int * operand (* word type, dst, pointer *)
  | Wstore of int * int * operand (* byte size, word, pointer *)
  | Bin of opcode * operand * operand * operand (* dst, a, b *)
  | Cmp of opcode * int * operand * operand (* dst is a word: a bool *)
  | CastI of Ltype.t * operand * operand (* resolved target type *)
  | Sel of operand * operand * operand * operand
  | AllocI of { dst : int; elt_size : int; count : operand option; on_stack : bool }
  | FreeI of operand
  | LoadI of Ltype.t * int * operand (* resolved result type *)
  | StoreI of int * operand * operand (* byte size, value, pointer *)
  | GepI of int * operand * gstep array
  | CallI of { dst : operand; void : bool; callee : callee; args : operand array }
  | InvokeI of {
      dst : operand;
      void : bool;
      callee : callee;
      args : operand array;
      normal : int;
      unwind : int;
    }
  | RetI of operand option
  | Br1 of int
  | Bra of operand * int * int
  | Sw of operand * (rtval * int) array * int (* pre-evaluated case values *)
  | UnwindI

type compiled = {
  cname : string;
  nregs : int; (* boxed frame size, including phi-copy temporaries *)
  arg_slots : operand array; (* where each argument lands: [Reg] or [Wrd] *)
  cpool : rtval array;
  wfile : int array;
  (* the word register file as every activation starts it: word
     constants in their slots, zeros elsewhere *)
  wconsts : (int * int) list; (* word constants: slot, value *)
  code : bc array;
  src_instrs : int; (* IR instructions compiled (statistics) *)
}

(* -- Compilation ----------------------------------------------------------- *)

(* Constant gep indices are folded into [Goff] only when the product
   cannot overflow the OCaml int range the fold uses. *)
let foldable_index (v : int64) = Int64.abs v < 0x10000000L

let compile ?(profile : Llvm_profile.Profile.t option) (mach : machine) (f : func) :
    compiled =
  if is_declaration f then
    Memory.trap "cannot compile declaration %s to bytecode" f.fname;
  let table = mach.modul.mtypes in
  (* The one failure: a function whose values cannot all take their
     slots, or whose blocks do not all end in a terminator, is IR the
     verifier rejects, and it ends the run. *)
  let ill_typed () = Memory.trap "bytecode: ill-typed function %s" f.fname in
  (* Hot/cold block layout (section 3.5): with an aggregate profile,
     order the body hot-first — entry pinned first, then blocks by
     profile weight, never-executed ("cold") blocks last in source
     order.  All control flow goes through labels, so layout changes
     neither semantics nor fuel; it only packs the hot path into a
     contiguous prefix of the code array (falls through more, jumps
     less after [retarget]). *)
  let layout_blocks =
    match (profile, f.fblocks) with
    | None, bs | _, ([] as bs) | _, ([ _ ] as bs) -> bs
    | Some p, entry :: rest ->
      let weighted =
        List.map
          (fun b ->
            (Llvm_profile.Profile.block_weight p ~func:f.fname ~block:b.bname, b))
          rest
      in
      let hot, cold = List.partition (fun (w, _) -> w > 0) weighted in
      let hot = List.stable_sort (fun (w1, _) (w2, _) -> compare w2 w1) hot in
      entry :: (List.map snd hot @ List.map snd cold)
  in
  (* register slots, by value id: a word slot for a word type, else a
     boxed one *)
  let slots : operand Ids.t = Ids.create 64 in
  let nregs = ref 0 in
  let nwords = ref 0 in
  let fresh n =
    let s = !n in
    incr n;
    s
  in
  let place id ty : operand =
    match Ids.find_opt slots id with
    | Some o -> o
    | None ->
      let t = Ltype.resolve table ty in
      let o = if is_word t then Wrd (fresh nwords, t) else Reg (fresh nregs) in
      Ids.replace slots id o;
      o
  in
  let arg_slots = Array.of_list (List.map (fun a -> place a.aid a.aty) f.fargs) in
  (* constant pool: evaluate each distinct constant once, and make one
     operand for it *)
  let pool_index : (rtval, operand) Hashtbl.t = Hashtbl.create 32 in
  let pool_rev = ref [] in
  let pool_n = ref 0 in
  let cst (v : rtval) : operand =
    match Hashtbl.find_opt pool_index v with
    | Some o -> o
    | None ->
      let o = Cst (fresh pool_n) in
      Hashtbl.replace pool_index v o;
      pool_rev := v :: !pool_rev;
      o
  in
  (* A word constant's word.  A verified integer constant already holds
     its kind's canonical value; only a constant cast, undef or zero
     needs evaluating. *)
  let word_of_const t (c : const) : int =
    match (t, c) with
    | Ltype.Integer k, Cint (_, v) ->
      let w = Int64.to_int v in
      if Int64.of_int w <> v || Fold.word_norm k w <> w then ill_typed ();
      w
    | Ltype.Bool, Cbool b -> Bool.to_int b
    | _ -> (
      match word_of_rtval t (const_rtval mach table c) with
      | w -> w
      | exception Memory.Trap _ -> ill_typed ())
  in
  (* word constants get word slots of their own, one per distinct word,
     and one operand per word and type, made once *)
  let wconst_ops : (int, int * operand) Hashtbl.t = Hashtbl.create 16 in
  let wconsts = ref [] in
  let wconst_op w s t =
    let o = Wrd (s, t) in
    Hashtbl.replace wconst_ops w (s, o);
    o
  in
  let wconst t (c : const) : operand =
    let w = word_of_const t c in
    match Hashtbl.find_opt wconst_ops w with
    | Some (_, (Wrd (_, t') as o)) when t' = t -> o
    | Some (s, _) -> wconst_op w s t
    | None ->
      let s = fresh nwords in
      wconsts := (s, w) :: !wconsts;
      wconst_op w s t
  in
  let operand (v : value) : operand =
    match v with
    | Vconst c ->
      let t = Ltype.resolve table (type_of_const table c) in
      if is_word t then wconst t c else cst (const_rtval mach table c)
    | Vinstr i -> place i.iid i.ity
    | Varg a -> place a.aid a.aty
    | Vglobal g -> cst (const_rtval mach table (Cgvar g))
    | Vfunc fn -> cst (Rptr (func_address mach fn))
    | Vblock _ -> ill_typed ()
  in
  let dest (i : instr) = place i.iid i.ity in
  (* the boxed slot of an instruction whose result is never a word (an
     address, or a load of a boxed type) *)
  let boxed_dest (i : instr) =
    match dest i with Reg d -> d | Cst _ | Wrd _ -> ill_typed ()
  in
  (* code emission into label space; labels become pcs in a final pass *)
  let buf = ref [] in
  let buf_n = ref 0 in
  let emit (i : bc) =
    buf := i :: !buf;
    incr buf_n
  in
  let labels : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let next_label = ref 0 in
  let new_label () =
    let l = !next_label in
    incr next_label;
    l
  in
  let place_label l = Hashtbl.replace labels l !buf_n in
  let block_label : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let label_of_block (b : block) : int =
    match Hashtbl.find_opt block_label b.bid with
    | Some l -> l
    | None ->
      let l = new_label () in
      Hashtbl.replace block_label b.bid l;
      l
  in
  (* A branch to a block with phis goes through a per-edge stub holding
     the phi copies; edges without phis jump straight to the block head. *)
  let pending_stubs = ref [] in
  let stub_memo : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let target ~(src : block) (dst : block) : int =
    if not (List.exists (fun i -> i.iop = Phi) dst.instrs) then
      label_of_block dst
    else
      match Hashtbl.find_opt stub_memo (src.bid, dst.bid) with
      | Some l -> l
      | None ->
        let l = new_label () in
        Hashtbl.replace stub_memo (src.bid, dst.bid) l;
        pending_stubs := (l, src, dst) :: !pending_stubs;
        l
  in
  let emit_stub (l, (src : block), (dst : block)) =
    place_label l;
    let moves =
      List.filter_map
        (fun i ->
          if i.iop <> Phi then None
          else
            match List.find_opt (fun (_, blk) -> blk == src) (phi_incoming i) with
            | Some (v, _) -> (
              match (dest i, operand v) with
              | Wrd (d, t), Wrd (s, t') when t = t' -> Some (Wmov (d, s))
              | Reg d, ((Reg _ | Cst _) as s) -> Some (Copy (d, s))
              | _ -> ill_typed ())
            | None -> ill_typed ())
        dst.instrs
    in
    (* phis assign in parallel: when a source register is also a
       destination, stage everything through temporaries *)
    let overlaps =
      List.exists
        (function
          | Wmov (_, s) ->
            List.exists (function Wmov (d, _) -> d = s | _ -> false) moves
          | Copy (_, Reg s) ->
            List.exists (function Copy (d, _) -> d = s | _ -> false) moves
          | _ -> false)
        moves
    in
    let moves =
      if not overlaps then moves
      else
        List.map
          (function
            | Wmov (d, s) ->
              let t = fresh nwords in
              emit (Wmov (t, s));
              Wmov (d, t)
            | Copy (d, s) ->
              let t = fresh nregs in
              emit (Copy (t, s));
              Copy (d, Reg t)
            | m -> m)
          moves
    in
    List.iter emit moves;
    emit (Jmp (label_of_block dst))
  in
  let compile_callee (site : instr) : callee =
    match site.operands.(0) with
    | Vfunc fn -> Direct fn
    | Vconst (Cfunc fn) -> Direct fn
    | Vconst (Ccast (_, Cfunc fn)) -> Direct fn (* a constant address *)
    | v -> Indirect (operand v, site.iid)
  in
  (* A gep as the address arithmetic [GepI] performs: constant byte
     offsets (adjacent ones merged) and index operands scaled by their
     element size, in operand order.  A constant index too large to fold
     is scaled at run time, in the same [Int64] arithmetic as the
     interpreter's gep. *)
  let compile_gep (g : instr) =
    let dst = boxed_dest g in
    let base = operand g.operands.(0) in
    let steps = ref [] in
    let push_off o =
      match !steps with
      | Goff p :: rest -> steps := Goff (p + o) :: rest
      | _ -> steps := Goff o :: !steps
    in
    let cur =
      match Ltype.resolve table (Ir.type_of table g.operands.(0)) with
      | Ltype.Pointer pointee -> ref pointee
      | _ -> ill_typed ()
    in
    for n = 1 to Array.length g.operands - 1 do
      let idx = g.operands.(n) in
      let scaled sz =
        match idx with
        | Vconst (Cint (_, v)) when foldable_index v -> push_off (Int64.to_int v * sz)
        | Vconst (Cbool b) -> push_off (Bool.to_int b * sz)
        | _ -> steps := Gscale (operand idx, sz) :: !steps
      in
      if n = 1 then
        (* first index steps over the pointer: scale by pointee size *)
        scaled (Ltype.size_of table !cur)
      else
        match (Ltype.resolve table !cur, idx) with
        | Ltype.Array (_, elt), _ ->
          scaled (Ltype.size_of table elt);
          cur := elt
        | (Ltype.Struct _ as s), Vconst (Cint (_, v)) when foldable_index v -> (
          let k = Int64.to_int v in
          match (Ltype.field_offset table s k, Ltype.field_type table s k) with
          | off, fty ->
            push_off off;
            cur := fty
          | exception Invalid_argument _ -> ill_typed ())
        | _ -> ill_typed ()
    done;
    emit (GepI (dst, base, Array.of_list (List.rev !steps)))
  in
  let n_instrs = ref 0 in
  let compile_instr (b : block) (i : instr) =
    incr n_instrs;
    let ops = i.operands in
    match i.iop with
    | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr -> (
      match (dest i, operand ops.(0), operand ops.(1)) with
      | Wrd (d, t), Wrd (x, tx), Wrd (y, ty) when tx = t && ty = t -> (
        match (t, i.iop) with
        | Ltype.Integer k, _ -> emit (Wbin (i.iop, k, d, x, y))
        | _, (And | Or | Xor) ->
          (* on 0 and 1 these agree with the bool table *)
          emit (Wbin (i.iop, Ltype.Ubyte, d, x, y))
        | _ -> (* bool arithmetic: traps in [rt_binop] *)
          emit (Bin (i.iop, Wrd (d, t), Wrd (x, tx), Wrd (y, ty))))
      | Wrd _, _, _ -> ill_typed ()
      | d, a, b -> emit (Bin (i.iop, d, a, b)))
    | SetEQ | SetNE | SetLT | SetGT | SetLE | SetGE -> (
      match (dest i, operand ops.(0), operand ops.(1)) with
      | Wrd (d, Ltype.Bool), Wrd (x, Ltype.Integer k), Wrd (y, Ltype.Integer _) ->
        emit (Wcmp (i.iop, k, d, x, y))
      | Wrd (d, Ltype.Bool), Wrd (x, Ltype.Bool), Wrd (y, Ltype.Bool) ->
        (* bools compare as the bytes 0 and 1, as in [rt_cmp] *)
        emit (Wcmp (i.iop, Ltype.Ubyte, d, x, y))
      | Wrd (d, Ltype.Bool), a, b -> emit (Cmp (i.iop, d, a, b))
      | _ -> ill_typed ())
    | Cast -> (
      match (dest i, operand ops.(0)) with
      | Wrd (d, t), Wrd (x, _) -> emit (Wcast (t, d, x))
      | d, a -> emit (CastI (Ltype.resolve table i.ity, d, a)))
    | Select -> (
      match (dest i, operand ops.(0), operand ops.(1), operand ops.(2)) with
      | Wrd (d, t), Wrd (c, _), Wrd (x, tx), Wrd (y, ty) when tx = t && ty = t ->
        emit (Wsel (d, c, x, y))
      | (Wrd (_, t) as d), c, (Wrd (_, tx) as x), (Wrd (_, ty) as y)
        when tx = t && ty = t ->
        emit (Sel (d, c, x, y))
      | Wrd _, _, _, _ -> ill_typed ()
      | d, c, x, y -> emit (Sel (d, c, x, y)))
    | Alloca | Malloc ->
      let elt = Option.get i.alloc_ty in
      let count =
        if Array.length i.operands > 0 then Some (operand ops.(0))
        else None
      in
      emit
        (AllocI
           { dst = boxed_dest i; elt_size = Ltype.size_of table elt; count;
             on_stack = i.iop = Alloca })
    | Free -> emit (FreeI (operand ops.(0)))
    | Load -> (
      match dest i with
      | Wrd (d, t) -> emit (Wload (t, d, operand ops.(0)))
      | _ -> emit (LoadI (Ltype.resolve table i.ity, boxed_dest i, operand ops.(0))))
    | Store -> (
      let size = Ltype.size_of table (Ir.type_of table i.operands.(0)) in
      match operand ops.(0) with
      | Wrd (v, _) -> emit (Wstore (size, v, operand ops.(1)))
      | v -> emit (StoreI (size, v, operand ops.(1))))
    | Gep -> compile_gep i
    | Phi -> decr n_instrs (* lowered to edge copies *)
    | Call ->
      emit
        (CallI
           { dst = dest i; void = i.ity = Ltype.Void;
             callee = compile_callee i;
             args = Array.of_list (List.map operand (call_args i)) })
    | Invoke ->
      emit
        (InvokeI
           { dst = dest i; void = i.ity = Ltype.Void;
             callee = compile_callee i;
             args = Array.of_list (List.map operand (call_args i));
             normal = target ~src:b (as_block i.operands.(1));
             unwind = target ~src:b (as_block i.operands.(2)) })
    | Ret ->
      emit
        (RetI
           (if Array.length i.operands = 1 then Some (operand ops.(0))
            else None))
    | Br ->
      if Array.length i.operands = 1 then
        emit (Br1 (target ~src:b (as_block i.operands.(0))))
      else
        emit
          (Bra
             ( operand ops.(0),
               target ~src:b (as_block i.operands.(1)),
               target ~src:b (as_block i.operands.(2)) ))
    | Switch ->
      let v = operand ops.(0) in
      (* a word condition drops the cases that can never equal it: a
         bool matches only bool cases, an integer only integer ones *)
      let cases =
        List.filter_map
          (fun (c, blk) ->
            let cv = const_rtval mach table c in
            match (v, cv) with
            | Wrd (_, Ltype.Bool), Rbool _
            | Wrd (_, Ltype.Integer _), Rint _
            | (Reg _ | Cst _), _ ->
              Some (cv, target ~src:b blk)
            | _ -> None)
          (switch_cases i)
      in
      emit (Sw (v, Array.of_list cases, target ~src:b (as_block i.operands.(1))))
    | Unwind -> emit UnwindI
  in
  List.iter
    (fun b ->
      place_label (label_of_block b);
      (* Specialize for the instrumentation setting at compile time: with
         profiling off there is no block-head hook at all.  The engine
         fixes [profiling] at creation, before any function is
         compiled, so the setting cannot change under compiled code. *)
      if mach.profiling then emit (Prof b.bid);
      List.iter (fun i -> if i.iop <> Phi then compile_instr b i) b.instrs;
      match terminator b with Some _ -> () | None -> ill_typed ())
    layout_blocks;
  List.iter emit_stub (List.rev !pending_stubs);
  (* resolve label-space targets to code offsets *)
  let code = Array.of_list (List.rev !buf) in
  let pc_of l =
    match Hashtbl.find_opt labels l with
    | Some pc -> pc
    | None -> ill_typed () (* a branch to another function's block *)
  in
  let retarget = function
    | Jmp l -> Jmp (pc_of l)
    | Br1 l -> Br1 (pc_of l)
    | Bra (c, t, e) -> Bra (c, pc_of t, pc_of e)
    | Sw (v, cases, d) ->
      Sw (v, Array.map (fun (cv, l) -> (cv, pc_of l)) cases, pc_of d)
    | InvokeI r -> InvokeI { r with normal = pc_of r.normal; unwind = pc_of r.unwind }
    | i -> i
  in
  let wfile = Array.make !nwords 0 in
  List.iter (fun (s, w) -> wfile.(s) <- w) !wconsts;
  { cname = f.fname;
    nregs = !nregs;
    arg_slots;
    cpool = Array.of_list (List.rev !pool_rev);
    wfile;
    wconsts = List.rev !wconsts;
    code = Array.map retarget code;
    src_instrs = !n_instrs }

(* -- Execution ------------------------------------------------------------- *)

(* Arguments into their slots, left to right, each word through the
   call-boundary check. *)
let rec bind_args (slots : operand array) (regs : rtval array) (wregs : int array) k
    = function
  | [] -> ()
  | v :: rest ->
    (match Array.unsafe_get slots k with
    | Wrd (r, ty) -> Array.unsafe_set wregs r (word_of_rtval ty v)
    | Reg r -> Array.unsafe_set regs r v
    | Cst _ -> invalid_arg "Bytecode: constant argument slot");
    bind_args slots regs wregs (k + 1) rest

(* The first case target equal to a boxed switch value, else [dflt]. *)
let rec find_case (cases : (rtval * int) array) (x : rtval) k dflt =
  if k = Array.length cases then dflt
  else
    let cv, t = Array.unsafe_get cases k in
    let hit =
      match (cv, x) with
      | Rint (_, a), Rint (_, b) -> a = b
      | Rbool a, Rbool b -> a = b
      | _ -> false
    in
    if hit then t else find_case cases x (k + 1) dflt

(* The same for a word; the compiler kept only the cases of its shape. *)
let rec find_word_case (cases : (rtval * int) array) (w : int) k dflt =
  if k = Array.length cases then dflt
  else
    let cv, t = Array.unsafe_get cases k in
    let hit =
      match cv with
      | Rint (_, a) -> a = Int64.of_int w
      | Rbool a -> Bool.to_int a = w
      | _ -> false
    in
    if hit then t else find_word_case cases w (k + 1) dflt

(* One activation: its register files, freshly allocated, and the
   stack allocations to release when it returns.  The dispatch loop and
   its helpers are top-level functions of the frame, so a call allocates
   this record and its files, not a closure per helper. *)
type frame = {
  mach : machine;
  code : bc array;
  pool : rtval array;
  regs : rtval array;
  wregs : int array;
  mutable stack_allocs : int64 list;
}

let ev (fr : frame) = function
  | Reg r -> Array.unsafe_get fr.regs r
  | Cst k -> Array.unsafe_get fr.pool k
  | Wrd (r, ty) -> rtval_of_word ty (Array.unsafe_get fr.wregs r)

(* a value into its destination slot; a word destination only ever
   receives a value of its type's exact shape, a call result through
   the call-boundary check *)
let set (fr : frame) d v =
  match d with
  | Reg r -> Array.unsafe_set fr.regs r v
  | Wrd (r, ty) -> Array.unsafe_set fr.wregs r (word_of_rtval ty v)
  | Cst _ -> invalid_arg "Bytecode: constant destination"

let truth (fr : frame) = function
  | Wrd (r, _) -> Array.unsafe_get fr.wregs r <> 0
  | o -> as_bool (ev fr o)

(* the call's arguments from operand [k] on, boxed *)
let rec actuals (fr : frame) (args : operand array) k =
  if k = Array.length args then []
  else
    let v = ev fr (Array.unsafe_get args k) in
    v :: actuals fr args (k + 1)

let finish (fr : frame) (out : outcome) : outcome =
  (match fr.stack_allocs with
  | [] -> ()
  | addrs -> List.iter (Memory.release_stack fr.mach.mem) addrs);
  out

let resolve (fr : frame) = function
  | Direct fn -> fn
  | Indirect (o, site) -> (
    let mach = fr.mach in
    let addr = as_ptr (ev fr o) in
    match Ids.find mach.func_of_id (Memory.id_of addr) with
    | fn ->
      if mach.profiling then record_call_target mach ~site fn;
      fn
    | exception Not_found ->
      Memory.trap "indirect call to non-code address %Lx" addr)

(* The dispatch loop.  No hashtable lookups or list traversals on the
   straight-line path; fuel accounting is inlined into every charging
   arm (no flambda, so helper closures would cost a call per
   instruction).  Register indices come from the compiler, which only
   hands out slots below each file's size, so register access is
   unchecked. *)
let rec go (fr : frame) (pc : int) : outcome =
  let mach = fr.mach and regs = fr.regs and wregs = fr.wregs in
  match Array.unsafe_get fr.code pc with
  | Prof bid ->
    count_block mach bid;
    go fr (pc + 1)
  | Copy (d, s) ->
    Array.unsafe_set regs d
      (match s with
      | Reg r -> Array.unsafe_get regs r
      | s -> ev fr s);
    go fr (pc + 1)
  | Wmov (d, s) ->
    Array.unsafe_set wregs d (Array.unsafe_get wregs s);
    go fr (pc + 1)
  | Jmp t -> go fr t
  | Wbin (op, k, d, a, b) ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    let r =
      match
        Fold.word_binop_exn k op (Array.unsafe_get wregs a)
          (Array.unsafe_get wregs b)
      with
      | r -> r
      | exception Fold.Undefined -> Memory.trap "integer division by zero"
    in
    Array.unsafe_set wregs d r;
    go fr (pc + 1)
  | Wcmp (op, k, d, a, b) ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    Array.unsafe_set wregs d
      (Bool.to_int
         (Fold.word_cmp k op (Array.unsafe_get wregs a) (Array.unsafe_get wregs b)));
    go fr (pc + 1)
  | Wcast (ty, d, a) ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    let w = Array.unsafe_get wregs a in
    Array.unsafe_set wregs d
      (match ty with
      | Ltype.Integer k -> Fold.word_norm k w
      | _ -> Bool.to_int (w <> 0));
    go fr (pc + 1)
  | Wsel (d, cnd, a, b) ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    Array.unsafe_set wregs d
      (Array.unsafe_get wregs (if Array.unsafe_get wregs cnd <> 0 then a else b));
    go fr (pc + 1)
  | Wload (ty, d, p) ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    let addr =
      as_ptr
        (match p with
        | Reg r -> Array.unsafe_get regs r
        | p -> ev fr p)
    in
    Array.unsafe_set wregs d
      (match ty with
      | Ltype.Integer k ->
        Fold.word_norm k (Memory.read_word mach.mem addr ~size:(Ltype.int_bits k / 8))
      | _ -> Bool.to_int (Memory.read_word mach.mem addr ~size:1 <> 0));
    go fr (pc + 1)
  | Wstore (size, v, p) ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    Memory.write_word mach.mem
      (as_ptr
         (match p with
         | Reg r -> Array.unsafe_get regs r
         | p -> ev fr p))
      ~size (Array.unsafe_get wregs v);
    go fr (pc + 1)
  | Bin (op, d, a, b) ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    set fr d
      (rt_binop op
         (match a with
         | Reg r -> Array.unsafe_get regs r
         | a -> ev fr a)
         (match b with
         | Reg r -> Array.unsafe_get regs r
         | b -> ev fr b));
    go fr (pc + 1)
  | Cmp (op, d, a, b) ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    Array.unsafe_set wregs d
      (Bool.to_int
         (as_bool
            (rt_cmp op
               (match a with
               | Reg r -> Array.unsafe_get regs r
               | a -> ev fr a)
               (match b with
               | Reg r -> Array.unsafe_get regs r
               | b -> ev fr b))));
    go fr (pc + 1)
  | CastI (ty, d, a) ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    set fr d (cast_resolved (ev fr a) ty);
    go fr (pc + 1)
  | Sel (d, cnd, a, b) ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    set fr d (if truth fr cnd then ev fr a else ev fr b);
    go fr (pc + 1)
  | AllocI { dst; elt_size; count; on_stack } ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    let n =
      match count with
      | None -> 1
      | Some (Wrd (r, _)) -> Array.unsafe_get wregs r
      | Some o -> Int64.to_int (as_int (ev fr o))
    in
    if n < 0 then Memory.trap "negative allocation count";
    let addr = Memory.alloc mach.mem ~on_stack (n * elt_size) in
    if on_stack then fr.stack_allocs <- addr :: fr.stack_allocs;
    Array.unsafe_set regs dst (Rptr addr);
    go fr (pc + 1)
  | FreeI o ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    Memory.free mach.mem (as_ptr (ev fr o));
    go fr (pc + 1)
  | LoadI (ty, d, p) ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    Array.unsafe_set regs d
      (load_resolved mach
         (as_ptr
            (match p with
            | Reg r -> Array.unsafe_get regs r
            | p -> ev fr p))
         ty);
    go fr (pc + 1)
  | StoreI (size, v, p) ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    store_sized mach
      (as_ptr
         (match p with
         | Reg r -> Array.unsafe_get regs r
         | p -> ev fr p))
      ~size
      (match v with
      | Reg r -> Array.unsafe_get regs r
      | v -> ev fr v);
    go fr (pc + 1)
  | GepI (d, base, steps) ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    let addr = ref (as_ptr (ev fr base)) in
    for k = 0 to Array.length steps - 1 do
      match Array.unsafe_get steps k with
      | Goff o -> addr := Int64.add !addr (Int64.of_int o)
      | Gscale (o, sz) ->
        let idx =
          match o with
          | Wrd (r, _) -> Int64.of_int (Array.unsafe_get wregs r)
          | o -> as_int (ev fr o)
        in
        addr := Int64.add !addr (Int64.mul idx (Int64.of_int sz))
    done;
    Array.unsafe_set regs d (Rptr !addr);
    go fr (pc + 1)
  | CallI { dst; void; callee; args } -> (
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    let fn = resolve fr callee in
    let actuals = actuals fr args 0 in
    match mach.dispatch mach fn actuals with
    | Normal r ->
      if not void then set fr dst r;
      go fr (pc + 1)
    | Unwinding -> finish fr Unwinding)
  | InvokeI { dst; void; callee; args; normal; unwind } -> (
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    let fn = resolve fr callee in
    let actuals = actuals fr args 0 in
    match mach.dispatch mach fn actuals with
    | Normal r ->
      if not void then set fr dst r;
      go fr normal
    | Unwinding -> go fr unwind)
  | RetI None ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    finish fr (Normal Rvoid)
  | RetI (Some o) ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    finish fr (Normal (ev fr o))
  | Br1 t ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    go fr t
  | Bra (cnd, t, e) ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    if
      match cnd with
      | Wrd (r, _) -> Array.unsafe_get wregs r <> 0
      | Reg r -> as_bool (Array.unsafe_get regs r)
      | Cst k -> as_bool (Array.unsafe_get fr.pool k)
    then go fr t
    else go fr e
  | Sw (v, cases, dflt) ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    go fr
      (match v with
      | Wrd (r, _) -> find_word_case cases (Array.unsafe_get wregs r) 0 dflt
      | v -> find_case cases (ev fr v) 0 dflt)
  | UnwindI ->
    mach.fuel <- mach.fuel - 1;
    if mach.fuel <= 0 then fuel_trap ();
    finish fr Unwinding

let exec (mach : machine) (c : compiled) (args : rtval list) : outcome =
  let regs = Array.make c.nregs Rvoid and wregs = Array.copy c.wfile in
  if List.length args <> Array.length c.arg_slots then
    Memory.trap "arity mismatch calling %s" c.cname;
  bind_args c.arg_slots regs wregs 0 args;
  go { mach; code = c.code; pool = c.cpool; regs; wregs; stack_allocs = [] } 0

(* -- Introspection (tests, debugging) -------------------------------------- *)

let pp_operand fmt = function
  | Reg r -> Fmt.pf fmt "r%d" r
  | Cst k -> Fmt.pf fmt "c%d" k
  | Wrd (r, _) -> Fmt.pf fmt "w%d" r

let pp_bc fmt = function
  | Prof bid -> Fmt.pf fmt "prof b%d" bid
  | Copy (d, s) -> Fmt.pf fmt "copy r%d <- %a" d pp_operand s
  | Wmov (d, s) -> Fmt.pf fmt "copy w%d <- w%d" d s
  | Jmp t -> Fmt.pf fmt "jmp %d" t
  | Wbin (op, k, d, a, b) | Wcmp (op, k, d, a, b) ->
    Fmt.pf fmt "%s.%s w%d <- w%d, w%d" (opcode_name op)
      (Ltype.to_string (Ltype.Integer k)) d a b
  | Wcast (ty, d, a) -> Fmt.pf fmt "cast w%d <- w%d to %s" d a (Ltype.to_string ty)
  | Wsel (d, c, a, b) -> Fmt.pf fmt "select w%d <- w%d ? w%d : w%d" d c a b
  | Wload (_, d, p) -> Fmt.pf fmt "load w%d <- [%a]" d pp_operand p
  | Wstore (sz, v, p) -> Fmt.pf fmt "store [%a] <- w%d (%d bytes)" pp_operand p v sz
  | Bin (op, d, a, b) ->
    Fmt.pf fmt "%s %a <- %a, %a" (opcode_name op) pp_operand d pp_operand a
      pp_operand b
  | Cmp (op, d, a, b) ->
    Fmt.pf fmt "%s w%d <- %a, %a" (opcode_name op) d pp_operand a pp_operand b
  | CastI (ty, d, a) ->
    Fmt.pf fmt "cast %a <- %a to %s" pp_operand d pp_operand a (Ltype.to_string ty)
  | Sel (d, c, a, b) ->
    Fmt.pf fmt "select %a <- %a ? %a : %a" pp_operand d pp_operand c pp_operand a
      pp_operand b
  | AllocI { dst; elt_size; on_stack; _ } ->
    Fmt.pf fmt "%s r%d (%d bytes)" (if on_stack then "alloca" else "malloc") dst
      elt_size
  | FreeI o -> Fmt.pf fmt "free %a" pp_operand o
  | LoadI (_, d, p) -> Fmt.pf fmt "load r%d <- [%a]" d pp_operand p
  | StoreI (sz, v, p) ->
    Fmt.pf fmt "store [%a] <- %a (%d bytes)" pp_operand p pp_operand v sz
  | GepI (d, b, steps) ->
    Fmt.pf fmt "gep r%d <- %a%a" d pp_operand b
      Fmt.(
        array ~sep:nop (fun fmt -> function
          | Goff o -> pf fmt " +%d" o
          | Gscale (op, sz) -> pf fmt " +%a*%d" pp_operand op sz))
      steps
  | CallI { dst; callee; args; _ } ->
    Fmt.pf fmt "call %a <- %s(%a)" pp_operand dst
      (match callee with Direct f -> f.fname | Indirect _ -> "<indirect>")
      Fmt.(array ~sep:comma pp_operand)
      args
  | InvokeI { dst; normal; unwind; _ } ->
    Fmt.pf fmt "invoke %a normal=%d unwind=%d" pp_operand dst normal unwind
  | RetI None -> Fmt.string fmt "ret void"
  | RetI (Some o) -> Fmt.pf fmt "ret %a" pp_operand o
  | Br1 t -> Fmt.pf fmt "br %d" t
  | Bra (c, t, e) -> Fmt.pf fmt "br %a ? %d : %d" pp_operand c t e
  | Sw (v, cases, d) ->
    Fmt.pf fmt "switch %a (%d cases) default=%d" pp_operand v
      (Array.length cases) d
  | UnwindI -> Fmt.string fmt "unwind"

let disassemble (c : compiled) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Fmt.str "%s: %d regs, %d words, %d consts, %d instrs@." c.cname c.nregs
       (Array.length c.wfile) (Array.length c.cpool) (Array.length c.code));
  List.iter
    (fun (s, w) -> Buffer.add_string buf (Fmt.str "  w%d = %d@." s w))
    c.wconsts;
  Array.iteri
    (fun pc i -> Buffer.add_string buf (Fmt.str "  %4d: %a@." pc pp_bc i))
    c.code;
  Buffer.contents buf
