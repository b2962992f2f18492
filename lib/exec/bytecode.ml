(* The baseline JIT tier (paper section 3.4).

   [compile] translates one function from the IR graph into a flat,
   register-based bytecode: every instruction and argument gets a fixed
   register slot, constants are evaluated once into a pool, branch and
   call targets are resolved to code offsets, getelementptr address
   arithmetic is folded to precomputed offsets and scales, and phi nodes
   are lowered to parallel copies on dedicated edge stubs.  [exec] then
   runs that bytecode in a tight dispatch loop with no hashtable lookups
   or list traversals on the hot path.

   Semantics are shared with the tree-walking interpreter down to the
   helper functions ([Interp.rt_binop], [Interp.load_resolved], ...), so
   the two tiers are bit-for-bit comparable: same outputs, same traps,
   same fuel accounting (one unit per executed IR instruction, with phi
   copies and profiling hooks free, exactly like [Interp.exec_func]),
   and same block-execution profiles.  Every load, store and division
   takes the interpreter's guarded path: removing checks with value
   ranges is the work of the offline passes (rangeprop and bounds-check
   elimination), not of the translator. *)

open Llvm_ir
open Ir
open Interp
module Ids = Llvm_analysis.Ids

type operand =
  | Reg of int (* register slot *)
  | Cst of int (* constant-pool index *)

type callee =
  | Direct of func
  | Indirect of operand * int (* dynamic callee, call-site instr id *)

type 'a gstep =
  | Goff of int (* constant byte offset *)
  | Gscale of 'a * int (* dynamic index times element size *)

type bc =
  (* free (no fuel): bookkeeping that has no IR-instruction counterpart *)
  | Prof of int (* block id: profile hook at every block head *)
  | Copy of int * operand (* phi-lowering move *)
  | Jmp of int (* edge-stub tail jump *)
  | DeadEnd of string (* fell off an unterminated block *)
  (* one fuel unit each: real IR instructions *)
  | Bin of opcode * int * operand * operand
  | Cmp of opcode * int * operand * operand
  | CastI of Ltype.t * int * operand (* resolved target type *)
  | Sel of int * operand * operand * operand
  | AllocI of { dst : int; elt_size : int; count : operand option; on_stack : bool }
  | FreeI of operand
  | LoadI of Ltype.t * int * operand (* resolved result type *)
  | StoreI of int * operand * operand (* byte size, value, pointer *)
  | GepI of int * operand * operand gstep array
  | GepSlow of int * operand * Ltype.t * (Ltype.t * operand) array
  | CallI of { dst : int; void : bool; callee : callee; args : operand array }
  | InvokeI of {
      dst : int;
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
  nregs : int; (* frame size, including phi-copy temporaries *)
  arg_slots : int array;
  cpool : rtval array;
  code : bc array;
  src_instrs : int; (* IR instructions compiled (statistics) *)
  (* recycled register frames for *large* functions: a frame above the
     minor-heap allocation limit is allocated directly on the major heap,
     so without reuse every call to a big (e.g. heavily inlined) function
     pays a major-heap allocation plus O(nregs) initialization.  Small
     frames stay minor-heap allocations — pooling those would promote
     them to the major heap and tax every register store with the write
     barrier.  Frames need no clearing between uses: the compiler hands
     out one slot per SSA value, and every use is dominated by its def,
     so a slot is always written in the current activation before it is
     read. *)
  mutable free_frames : rtval array list;
  mutable nfree : int;
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
  (* register slots *)
  let slots : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let nregs = ref 0 in
  let slot_of id =
    match Hashtbl.find_opt slots id with
    | Some s -> s
    | None ->
      let s = !nregs in
      incr nregs;
      Hashtbl.replace slots id s;
      s
  in
  let arg_slots = Array.of_list (List.map (fun a -> slot_of a.aid) f.fargs) in
  (* constant pool: evaluate each distinct constant once *)
  let pool_index : (rtval, int) Hashtbl.t = Hashtbl.create 32 in
  let pool_rev = ref [] in
  let pool_n = ref 0 in
  let cst (v : rtval) : operand =
    match Hashtbl.find_opt pool_index v with
    | Some k -> Cst k
    | None ->
      let k = !pool_n in
      incr pool_n;
      Hashtbl.replace pool_index v k;
      pool_rev := v :: !pool_rev;
      Cst k
  in
  let operand (v : value) : operand =
    match v with
    | Vconst c -> cst (const_rtval mach table c)
    | Vinstr i -> Reg (slot_of i.iid)
    | Varg a -> Reg (slot_of a.aid)
    | Vglobal g -> cst (const_rtval mach table (Cgvar g))
    | Vfunc fn -> cst (Rptr (func_address mach fn))
    | Vblock _ -> Memory.trap "block used as a value"
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
  let place l = Hashtbl.replace labels l !buf_n in
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
    place l;
    let moves =
      List.filter_map
        (fun i ->
          if i.iop <> Phi then None
          else
            match List.find_opt (fun (_, blk) -> blk == src) (phi_incoming i) with
            | Some (v, _) -> Some (slot_of i.iid, operand v)
            | None ->
              Memory.trap "phi %%%s has no entry for predecessor %%%s" i.iname
                src.bname)
        dst.instrs
    in
    (* phis assign in parallel: when a source register is also a
       destination, stage everything through temporaries *)
    let dsts = List.map fst moves in
    let overlaps =
      List.exists
        (fun (_, s) -> match s with Reg r -> List.mem r dsts | Cst _ -> false)
        moves
    in
    if overlaps then begin
      let staged =
        List.map
          (fun (d, s) ->
            let t = !nregs in
            incr nregs;
            (d, s, t))
          moves
      in
      List.iter (fun (_, s, t) -> emit (Copy (t, s))) staged;
      List.iter (fun (d, _, t) -> emit (Copy (d, Reg t))) staged
    end
    else List.iter (fun (d, s) -> emit (Copy (d, s))) moves;
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
     offsets (adjacent ones merged) and index values scaled by their
     element size, in operand order.  [None] when the gep needs
     [GepSlow]: a variable or unfoldable struct index, or an index into
     a scalar, keeps the interpreter's runtime trap. *)
  let gep_steps (g : instr) : value gstep array option =
    let exception Fallback in
    let steps = ref [] in
    let push_off o =
      match !steps with
      | Goff p :: rest -> steps := Goff (p + o) :: rest
      | _ -> steps := Goff o :: !steps
    in
    let walk () =
      let cur =
        match Ltype.resolve table (Ir.type_of table g.operands.(0)) with
        | Ltype.Pointer pointee -> ref pointee
        | _ -> raise Fallback (* non-pointer base: traps at runtime *)
      in
      for n = 1 to Array.length g.operands - 1 do
        let idx = g.operands.(n) in
        let const_idx =
          match idx with
          | Vconst c -> (
            match const_rtval mach table c with
            | Rint (_, v) when foldable_index v -> Some v
            | Rbool b -> Some (if b then 1L else 0L)
            | _ -> None)
          | _ -> None
        in
        let scaled sz =
          match const_idx with
          | Some v -> push_off (Int64.to_int v * sz)
          | None -> steps := Gscale (idx, sz) :: !steps
        in
        if n = 1 then
          (* first index steps over the pointer: scale by pointee size *)
          scaled (Ltype.size_of table !cur)
        else
          match (Ltype.resolve table !cur, const_idx) with
          | Ltype.Array (_, elt), _ ->
            scaled (Ltype.size_of table elt);
            cur := elt
          | (Ltype.Struct _ as s), Some v ->
            let k = Int64.to_int v in
            push_off (Ltype.field_offset table s k);
            cur := Ltype.field_type table s k
          | _ -> raise Fallback
      done;
      Some (Array.of_list (List.rev !steps))
    in
    try walk () with Fallback | Invalid_argument _ -> None
  in
  let compile_gep (i : instr) =
    let dst = slot_of i.iid in
    let base = operand i.operands.(0) in
    match gep_steps i with
    | Some steps ->
      let step = function
        | Goff o -> Goff o
        | Gscale (v, sz) -> Gscale (operand v, sz)
      in
      emit (GepI (dst, base, Array.map step steps))
    | None ->
      let idxs =
        Array.init
          (Array.length i.operands - 1)
          (fun k ->
            let v = i.operands.(k + 1) in
            (Ir.type_of table v, operand v))
      in
      emit (GepSlow (dst, base, Ir.type_of table i.operands.(0), idxs))
  in
  let n_instrs = ref 0 in
  let compile_instr (b : block) (i : instr) =
    incr n_instrs;
    match i.iop with
    | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr ->
      emit (Bin (i.iop, slot_of i.iid, operand i.operands.(0), operand i.operands.(1)))
    | SetEQ | SetNE | SetLT | SetGT | SetLE | SetGE ->
      emit (Cmp (i.iop, slot_of i.iid, operand i.operands.(0), operand i.operands.(1)))
    | Cast ->
      emit (CastI (Ltype.resolve table i.ity, slot_of i.iid, operand i.operands.(0)))
    | Select ->
      emit
        (Sel
           ( slot_of i.iid,
             operand i.operands.(0),
             operand i.operands.(1),
             operand i.operands.(2) ))
    | Alloca | Malloc ->
      let elt = Option.get i.alloc_ty in
      let count =
        if Array.length i.operands > 0 then Some (operand i.operands.(0))
        else None
      in
      emit
        (AllocI
           { dst = slot_of i.iid; elt_size = Ltype.size_of table elt; count;
             on_stack = i.iop = Alloca })
    | Free -> emit (FreeI (operand i.operands.(0)))
    | Load ->
      emit (LoadI (Ltype.resolve table i.ity, slot_of i.iid, operand i.operands.(0)))
    | Store ->
      let size = Ltype.size_of table (Ir.type_of table i.operands.(0)) in
      emit (StoreI (size, operand i.operands.(0), operand i.operands.(1)))
    | Gep -> compile_gep i
    | Phi -> decr n_instrs (* lowered to edge copies *)
    | Call ->
      emit
        (CallI
           { dst = slot_of i.iid; void = i.ity = Ltype.Void;
             callee = compile_callee i;
             args = Array.of_list (List.map operand (call_args i)) })
    | Invoke ->
      emit
        (InvokeI
           { dst = slot_of i.iid; void = i.ity = Ltype.Void;
             callee = compile_callee i;
             args = Array.of_list (List.map operand (call_args i));
             normal = target ~src:b (as_block i.operands.(1));
             unwind = target ~src:b (as_block i.operands.(2)) })
    | Ret ->
      emit
        (RetI
           (if Array.length i.operands = 1 then Some (operand i.operands.(0))
            else None))
    | Br ->
      if Array.length i.operands = 1 then
        emit (Br1 (target ~src:b (as_block i.operands.(0))))
      else
        emit
          (Bra
             ( operand i.operands.(0),
               target ~src:b (as_block i.operands.(1)),
               target ~src:b (as_block i.operands.(2)) ))
    | Switch ->
      let cases =
        List.map
          (fun (c, blk) -> (const_rtval mach table c, target ~src:b blk))
          (switch_cases i)
      in
      emit
        (Sw
           ( operand i.operands.(0),
             Array.of_list cases,
             target ~src:b (as_block i.operands.(1)) ))
    | Unwind -> emit UnwindI
  in
  List.iter
    (fun b ->
      place (label_of_block b);
      (* Specialize for the instrumentation setting at compile time: with
         profiling off there is no block-head hook at all.  The engine
         fixes [profiling] at creation, before any function is
         compiled, so the setting cannot change under compiled code. *)
      if mach.profiling then emit (Prof b.bid);
      List.iter (fun i -> if i.iop <> Phi then compile_instr b i) b.instrs;
      match terminator b with
      | Some _ -> ()
      | None -> emit (DeadEnd b.bname))
    layout_blocks;
  List.iter emit_stub (List.rev !pending_stubs);
  (* resolve label-space targets to code offsets *)
  let code = Array.of_list (List.rev !buf) in
  let pc_of l =
    match Hashtbl.find_opt labels l with
    | Some pc -> pc
    | None -> Memory.trap "bytecode: unresolved label in %s" f.fname
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
  { cname = f.fname;
    nregs = !nregs;
    arg_slots;
    cpool = Array.of_list (List.rev !pool_rev);
    code = Array.map retarget code;
    src_instrs = !n_instrs;
    free_frames = [];
    nfree = 0 }

(* -- Execution ------------------------------------------------------------- *)

(* The dispatch loop.  No hashtable lookups or list traversals on the
   straight-line path; fuel accounting is inlined into every charging
   arm (no flambda, so helper closures would cost a call per
   instruction).  Register indices come from the compiler, which only
   hands out slots below [nregs], so register access is unchecked. *)
let max_free_frames = 64

(* OCaml's minor-heap allocation limit (Max_young_wosize) is 256 words:
   frames at least this big are major-heap allocations and worth
   recycling; smaller ones are cheaper fresh. *)
let pooled_frame_size = 256

let exec (mach : machine) (c : compiled) (args : rtval list) : outcome =
  let regs =
    match c.free_frames with
    | f :: rest ->
      c.free_frames <- rest;
      c.nfree <- c.nfree - 1;
      f
    | [] -> Array.make c.nregs Rvoid
  in
  if List.length args <> Array.length c.arg_slots then
    Memory.trap "arity mismatch calling %s" c.cname;
  List.iteri (fun k v -> regs.(Array.unsafe_get c.arg_slots k) <- v) args;
  let stack_allocs = ref [] in
  let pool = c.cpool in
  let code = c.code in
  let table = mach.modul.mtypes in
  let ev = function
    | Reg r -> Array.unsafe_get regs r
    | Cst k -> Array.unsafe_get pool k
  in
  let finish (out : outcome) : outcome =
    List.iter (Memory.release_stack mach.mem) !stack_allocs;
    (* recycle the frame; a trap abandons its frame instead (the run is
       over anyway), so no exception handler is needed on the hot path *)
    if c.nregs >= pooled_frame_size && c.nfree < max_free_frames then begin
      c.free_frames <- regs :: c.free_frames;
      c.nfree <- c.nfree + 1
    end;
    out
  in
  let resolve = function
    | Direct fn -> fn
    | Indirect (o, site) -> (
      let addr = as_ptr (ev o) in
      match Ids.find mach.func_of_id (Memory.id_of addr) with
      | fn ->
        if mach.profiling then record_call_target mach ~site fn;
        fn
      | exception Not_found ->
        Memory.trap "indirect call to non-code address %Lx" addr)
  in
  let rec go (pc : int) : outcome =
    match Array.unsafe_get code pc with
    | Prof bid ->
      count_block mach bid;
      go (pc + 1)
    | Copy (d, s) ->
      Array.unsafe_set regs d
        (match s with
        | Reg r -> Array.unsafe_get regs r
        | Cst k -> Array.unsafe_get pool k);
      go (pc + 1)
    | Jmp t -> go t
    | DeadEnd bname -> Memory.trap "fell off the end of block %%%s" bname
    | Bin (op, d, a, b) ->
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ();
      Array.unsafe_set regs d
        (rt_binop op
           (match a with
           | Reg r -> Array.unsafe_get regs r
           | Cst k -> Array.unsafe_get pool k)
           (match b with
           | Reg r -> Array.unsafe_get regs r
           | Cst k -> Array.unsafe_get pool k));
      go (pc + 1)
    | Cmp (op, d, a, b) ->
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ();
      Array.unsafe_set regs d
        (rt_cmp op
           (match a with
           | Reg r -> Array.unsafe_get regs r
           | Cst k -> Array.unsafe_get pool k)
           (match b with
           | Reg r -> Array.unsafe_get regs r
           | Cst k -> Array.unsafe_get pool k));
      go (pc + 1)
    | CastI (ty, d, a) ->
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ();
      Array.unsafe_set regs d (cast_resolved (ev a) ty);
      go (pc + 1)
    | Sel (d, cnd, a, b) ->
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ();
      Array.unsafe_set regs d (if as_bool (ev cnd) then ev a else ev b);
      go (pc + 1)
    | AllocI { dst; elt_size; count; on_stack } ->
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ();
      let n =
        match count with
        | None -> 1
        | Some o -> Int64.to_int (as_int (ev o))
      in
      if n < 0 then Memory.trap "negative allocation count";
      let addr = Memory.alloc mach.mem ~on_stack (n * elt_size) in
      if on_stack then stack_allocs := addr :: !stack_allocs;
      Array.unsafe_set regs dst (Rptr addr);
      go (pc + 1)
    | FreeI o ->
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ();
      Memory.free mach.mem (as_ptr (ev o));
      go (pc + 1)
    | LoadI (ty, d, p) ->
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ();
      Array.unsafe_set regs d
        (load_resolved mach
           (as_ptr
              (match p with
              | Reg r -> Array.unsafe_get regs r
              | Cst k -> Array.unsafe_get pool k))
           ty);
      go (pc + 1)
    | StoreI (size, v, p) ->
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ();
      store_sized mach
        (as_ptr
           (match p with
           | Reg r -> Array.unsafe_get regs r
           | Cst k -> Array.unsafe_get pool k))
        ~size
        (match v with
        | Reg r -> Array.unsafe_get regs r
        | Cst k -> Array.unsafe_get pool k);
      go (pc + 1)
    | GepI (d, base, steps) ->
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ();
      let addr = ref (as_ptr (ev base)) in
      for k = 0 to Array.length steps - 1 do
        match Array.unsafe_get steps k with
        | Goff o -> addr := Int64.add !addr (Int64.of_int o)
        | Gscale (o, sz) ->
          addr := Int64.add !addr (Int64.mul (as_int (ev o)) (Int64.of_int sz))
      done;
      Array.unsafe_set regs d (Rptr !addr);
      go (pc + 1)
    | GepSlow (d, base, pty, idxs) ->
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ();
      let indices = Array.to_list (Array.map (fun (t, o) -> (t, ev o)) idxs) in
      Array.unsafe_set regs d
        (Rptr (gep_address table (as_ptr (ev base)) pty indices));
      go (pc + 1)
    | CallI { dst; void; callee; args } -> (
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ();
      let fn = resolve callee in
      let actuals = Array.fold_right (fun o acc -> ev o :: acc) args [] in
      match mach.dispatch mach fn actuals with
      | Normal r ->
        if not void then Array.unsafe_set regs dst r;
        go (pc + 1)
      | Unwinding -> finish Unwinding)
    | InvokeI { dst; void; callee; args; normal; unwind } -> (
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ();
      let fn = resolve callee in
      let actuals = Array.fold_right (fun o acc -> ev o :: acc) args [] in
      match mach.dispatch mach fn actuals with
      | Normal r ->
        if not void then Array.unsafe_set regs dst r;
        go normal
      | Unwinding -> go unwind)
    | RetI None ->
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ();
      finish (Normal Rvoid)
    | RetI (Some o) ->
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ();
      finish (Normal (ev o))
    | Br1 t ->
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ();
      go t
    | Bra (cnd, t, e) ->
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ();
      if
        as_bool
          (match cnd with
          | Reg r -> Array.unsafe_get regs r
          | Cst k -> Array.unsafe_get pool k)
      then go t
      else go e
    | Sw (v, cases, dflt) ->
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ();
      let x = ev v in
      let n = Array.length cases in
      let rec find k =
        if k = n then dflt
        else
          let cv, t = Array.unsafe_get cases k in
          let hit =
            match (cv, x) with
            | Rint (_, a), Rint (_, b) -> a = b
            | Rbool a, Rbool b -> a = b
            | _ -> false
          in
          if hit then t else find (k + 1)
      in
      go (find 0)
    | UnwindI ->
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ();
      finish Unwinding
  in
  go 0

(* -- Introspection (tests, debugging) -------------------------------------- *)

let pp_operand fmt = function
  | Reg r -> Fmt.pf fmt "r%d" r
  | Cst k -> Fmt.pf fmt "c%d" k

let pp_bc fmt = function
  | Prof bid -> Fmt.pf fmt "prof b%d" bid
  | Copy (d, s) -> Fmt.pf fmt "copy r%d <- %a" d pp_operand s
  | Jmp t -> Fmt.pf fmt "jmp %d" t
  | DeadEnd b -> Fmt.pf fmt "deadend %%%s" b
  | Bin (op, d, a, b) ->
    Fmt.pf fmt "%s r%d <- %a, %a" (opcode_name op) d pp_operand a pp_operand b
  | Cmp (op, d, a, b) ->
    Fmt.pf fmt "%s r%d <- %a, %a" (opcode_name op) d pp_operand a pp_operand b
  | CastI (ty, d, a) ->
    Fmt.pf fmt "cast r%d <- %a to %s" d pp_operand a (Ltype.to_string ty)
  | Sel (d, c, a, b) ->
    Fmt.pf fmt "select r%d <- %a ? %a : %a" d pp_operand c pp_operand a
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
  | GepSlow (d, b, _, _) -> Fmt.pf fmt "gep.slow r%d <- %a ..." d pp_operand b
  | CallI { dst; callee; args; _ } ->
    Fmt.pf fmt "call r%d <- %s(%a)" dst
      (match callee with Direct f -> f.fname | Indirect _ -> "<indirect>")
      Fmt.(array ~sep:comma pp_operand)
      args
  | InvokeI { dst; normal; unwind; _ } ->
    Fmt.pf fmt "invoke r%d normal=%d unwind=%d" dst normal unwind
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
    (Fmt.str "%s: %d regs, %d consts, %d instrs@." c.cname c.nregs
       (Array.length c.cpool) (Array.length c.code));
  Array.iteri
    (fun pc i -> Buffer.add_string buf (Fmt.str "  %4d: %a@." pc pp_bc i))
    c.code;
  Buffer.contents buf
