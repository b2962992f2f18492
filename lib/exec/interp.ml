(* The LLVM execution engine (paper section 3.4).

   This interpreter plays the role of the JIT: it executes the IR
   directly against the simulated memory of [Memory], implements the
   invoke/unwind stack-unwinding semantics of section 2.4, hosts the
   C++-style exception-handling runtime library of Figure 3
   (the llvm_cxxeh functions), and can record block-execution profiles — the
   "light-weight instrumentation to detect frequently executed code
   regions" of section 3.5.

   Undefined values read as zero; this is deterministic so the semantic
   equivalence property tests (optimized vs unoptimized programs) are
   meaningful. *)

open Llvm_ir
open Ir
module Ids = Llvm_analysis.Ids

exception Exit_program of int

type rtval =
  | Rvoid
  | Rbool of bool
  | Rint of Ltype.int_kind * int64 (* stored normalized *)
  | Rfloat of Ltype.t * float
  | Rptr of int64

type outcome = Normal of rtval | Unwinding

(* [Rbool b] as one of two static constants, so that comparisons,
   boolean operations, casts, loads and constants allocate no boolean. *)
let rbool b = if b then Rbool true else Rbool false

type machine = {
  modul : modul;
  mem : Memory.t;
  globals : int64 Ids.t; (* gvar id -> address *)
  func_addr : int64 Ids.t; (* func id -> code address *)
  func_of_id : func Ids.t; (* allocation id -> func *)
  frames : Ids.Numbering.t Ids.t;
  (* func id -> its frame layout: args, then instructions, numbered
     densely the first time the interpreter runs it *)
  mutable fuel : int; (* remaining instruction budget *)
  out : Buffer.t; (* program output *)
  mutable exc : (int64 * int64) option; (* live exception: object, typeid *)
  mutable sjlj : (int64 * int64) option; (* in-flight longjmp: buf, value *)
  block_counts : (int, int) Hashtbl.t; (* block id -> executions *)
  call_counts : (int, (int, int) Hashtbl.t) Hashtbl.t;
  (* indirect call site (instr id) -> resolved callee (func id) -> count;
     the call-target half of the section 3.5 instrumentation *)
  pools : (int64, int64 list ref) Hashtbl.t; (* pool descriptor -> members *)
  mutable profiling : bool;
  mutable deopts : int; (* llvm_deopt executions (failed speculation guards) *)
  (* Every call site routes through [dispatch], so an execution engine
     (Engine) can intercept calls and pick a tier per function.  The
     default is [exec_func]: pure interpretation. *)
  mutable dispatch : machine -> func -> rtval list -> outcome;
}

let default_fuel = 50_000_000

(* The one trap for an exhausted instruction budget, in every tier. *)
let fuel_trap_msg = "out of fuel (infinite loop?)"
let fuel_trap () = raise (Memory.Trap fuel_trap_msg)

(* -- Value/byte conversions ---------------------------------------------- *)

let rtval_type_zero table (ty : Ltype.t) : rtval =
  match Ltype.resolve table ty with
  | Ltype.Void -> Rvoid
  | Ltype.Bool -> Rbool false
  | Ltype.Integer k -> Rint (k, 0L)
  | (Ltype.Float | Ltype.Double) as t -> Rfloat (t, 0.0)
  | Ltype.Pointer _ | Ltype.Function _ -> Rptr 0L
  | Ltype.Array _ | Ltype.Struct _ | Ltype.Named _ | Ltype.Opaque _ ->
    Memory.trap "no scalar zero for aggregate type"

(* [store_sized] / [load_resolved] are the post-type-resolution halves of
   scalar memory access; the bytecode tier calls them with sizes/types
   pre-resolved at compile time so both tiers share one semantics. *)
let store_sized (mach : machine) (addr : int64) ~(size : int) (v : rtval) :
    unit =
  match v with
  | Rvoid -> ()
  | Rbool b -> Memory.write_int mach.mem addr ~size:1 (if b then 1L else 0L)
  | Rint (_, x) -> Memory.write_int mach.mem addr ~size x
  | Rfloat (t, f) ->
    if t = Ltype.Float then
      Memory.write_int mach.mem addr ~size:4
        (Int64.of_int32 (Int32.bits_of_float f))
    else Memory.write_int mach.mem addr ~size:8 (Int64.bits_of_float f)
  | Rptr p -> Memory.write_int mach.mem addr ~size:8 p

let store_scalar (mach : machine) table (addr : int64) (ty : Ltype.t)
    (v : rtval) : unit =
  store_sized mach addr ~size:(Ltype.size_of table ty) v

let load_resolved (mach : machine) (addr : int64) (rty : Ltype.t) : rtval =
  match rty with
  | Ltype.Void -> Rvoid
  | Ltype.Bool -> rbool (Memory.read_int mach.mem addr ~size:1 <> 0L)
  | Ltype.Integer k ->
    Rint (k, normalize_int k (Memory.read_int mach.mem addr ~size:(Ltype.int_bits k / 8)))
  | Ltype.Float ->
    Rfloat
      ( Ltype.Float,
        Int32.float_of_bits (Int64.to_int32 (Memory.read_int mach.mem addr ~size:4)) )
  | Ltype.Double ->
    Rfloat (Ltype.Double, Int64.float_of_bits (Memory.read_int mach.mem addr ~size:8))
  | Ltype.Pointer _ | Ltype.Function _ -> Rptr (Memory.read_int mach.mem addr ~size:8)
  | Ltype.Array _ | Ltype.Struct _ | Ltype.Named _ | Ltype.Opaque _ ->
    Memory.trap "aggregate loads are not first-class (lower to field loads)"

let load_scalar (mach : machine) table (addr : int64) (ty : Ltype.t) : rtval =
  load_resolved mach addr (Ltype.resolve table ty)

(* -- Constants ------------------------------------------------------------ *)

let func_address (mach : machine) (f : func) : int64 =
  match Ids.find mach.func_addr f.fid with
  | a -> a
  | exception Not_found -> Memory.trap "function %s has no address" f.fname

let rec const_rtval (mach : machine) table (c : const) : rtval =
  match c with
  | Cbool b -> rbool b
  | Cint (Ltype.Integer k, v) -> Rint (k, v)
  | Cint (_, v) -> Rint (Ltype.Long, v)
  | Cfloat (t, f) -> Rfloat (t, f)
  | Cnull _ -> Rptr 0L
  | Cundef ty -> rtval_type_zero table ty
  | Czero ty -> rtval_type_zero table ty
  | Cgvar g -> (
    match Ids.find mach.globals g.gid with
    | a -> Rptr a
    | exception Not_found -> Memory.trap "global %s not materialized" g.gname)
  | Cfunc f -> Rptr (func_address mach f)
  | Ccast (ty, c) -> cast_rtval mach table (const_rtval mach table c) ty
  | Carray _ | Cstruct _ ->
    Memory.trap "aggregate constant in scalar position"

(* -- Casts ----------------------------------------------------------------- *)

(* [cast_resolved] expects [target] already resolved past Named types;
   the bytecode tier resolves at compile time. *)
and cast_resolved (v : rtval) (target : Ltype.t) : rtval =
  let as_bits = function
    | Rbool b -> if b then 1L else 0L
    | Rint (_, x) -> x
    | Rptr p -> p
    | Rfloat (_, f) -> Int64.of_float f
    | Rvoid -> 0L
  in
  match target with
  | Ltype.Void -> Rvoid
  | Ltype.Bool -> (
    match v with
    | Rfloat (_, f) -> rbool (f <> 0.0)
    | v -> rbool (as_bits v <> 0L))
  | Ltype.Integer k -> Rint (k, normalize_int k (as_bits v))
  | (Ltype.Float | Ltype.Double) as t ->
    let f =
      match v with
      | Rfloat (_, f) -> f
      | Rint (k, x) when not (Ltype.is_signed k) ->
        let u = Fold.to_unsigned (Ltype.int_bits k) x in
        if u >= 0L then Int64.to_float u
        else Int64.to_float u +. 18446744073709551616.0
      | v -> Int64.to_float (as_bits v)
    in
    let f = if t = Ltype.Float then Int32.float_of_bits (Int32.bits_of_float f) else f in
    Rfloat (t, f)
  | Ltype.Pointer _ | Ltype.Function _ -> Rptr (as_bits v)
  | Ltype.Array _ | Ltype.Struct _ | Ltype.Named _ | Ltype.Opaque _ ->
    Memory.trap "cast to aggregate type"

and cast_rtval (_mach : machine) table (v : rtval) (target : Ltype.t) : rtval =
  cast_resolved v (Ltype.resolve table target)

(* Write an aggregate (or scalar) constant into memory at [addr]. *)
let rec write_const (mach : machine) table (addr : int64) (ty : Ltype.t)
    (c : const) : unit =
  match c with
  | Czero _ | Cundef _ -> () (* memory starts zeroed *)
  | Carray (elt, elts) ->
    let esz = Ltype.size_of table elt in
    List.iteri
      (fun k e ->
        write_const mach table (Int64.add addr (Int64.of_int (k * esz))) elt e)
      elts
  | Cstruct (sty, elts) ->
    List.iteri
      (fun k e ->
        let fty = Ltype.field_type table sty k in
        let off = Ltype.field_offset table sty k in
        write_const mach table (Int64.add addr (Int64.of_int off)) fty e)
      elts
  | c -> store_scalar mach table addr ty (const_rtval mach table c)

(* -- Machine construction -------------------------------------------------- *)

(* The runtime that declarations bind to, by name.  No builtin keeps
   state of its own (each reads and writes the machine it is handed),
   so one table serves every machine. *)
let builtins : (string, machine -> rtval list -> rtval) Hashtbl.t =
  let t = Hashtbl.create 32 in
  let out_str mach s = Buffer.add_string mach.out s in
  let int_arg = function
    | Rint (_, v) :: _ -> v
    | Rbool b :: _ -> if b then 1L else 0L
    | _ -> Memory.trap "builtin: integer argument expected"
  in
  let ptr_arg = function
    | Rptr p :: _ -> p
    | _ -> Memory.trap "builtin: pointer argument expected"
  in
  Hashtbl.replace t "putchar" (fun mach args ->
      Buffer.add_char mach.out (Char.chr (Int64.to_int (int_arg args) land 0xFF));
      Rint (Ltype.Int, 0L));
  Hashtbl.replace t "print_int" (fun mach args ->
      out_str mach (Int64.to_string (int_arg args));
      Rvoid);
  Hashtbl.replace t "print_long" (fun mach args ->
      out_str mach (Int64.to_string (int_arg args));
      Rvoid);
  Hashtbl.replace t "print_double" (fun mach args ->
      (match args with
      | Rfloat (_, f) :: _ -> out_str mach (Printf.sprintf "%g" f)
      | _ -> Memory.trap "print_double: float expected");
      Rvoid);
  Hashtbl.replace t "print_str" (fun mach args ->
      out_str mach (Memory.read_cstring mach.mem (ptr_arg args));
      Rvoid);
  Hashtbl.replace t "print_newline" (fun mach _ ->
      Buffer.add_char mach.out '\n';
      Rvoid);
  Hashtbl.replace t "exit" (fun _ args ->
      raise (Exit_program (Int64.to_int (int_arg args))));
  Hashtbl.replace t "abort" (fun _ _ -> Memory.trap "abort() called");
  (* -- the C++ exception-handling runtime of Figure 3 -- *)
  Hashtbl.replace t "llvm_cxxeh_alloc_exc" (fun mach args ->
      Rptr (Memory.alloc mach.mem (Int64.to_int (int_arg args))));
  Hashtbl.replace t "llvm_cxxeh_throw" (fun mach args ->
      match args with
      | [ Rptr obj; Rint (_, typeid) ] ->
        mach.exc <- Some (obj, typeid);
        Rvoid
      | _ -> Memory.trap "llvm_cxxeh_throw: bad arguments");
  Hashtbl.replace t "llvm_cxxeh_current_typeid" (fun mach _ ->
      match mach.exc with
      | Some (_, typeid) -> Rint (Ltype.Int, typeid)
      | None -> Rint (Ltype.Int, -1L));
  Hashtbl.replace t "llvm_cxxeh_get_exception" (fun mach _ ->
      match mach.exc with
      | Some (obj, _) -> Rptr obj
      | None -> Rptr 0L);
  Hashtbl.replace t "llvm_cxxeh_end_catch" (fun mach _ ->
      (match mach.exc with
      | Some (obj, _) -> Memory.free mach.mem obj
      | None -> ());
      mach.exc <- None;
      Rvoid);
  (* Failed speculation guard (section 3.5's runtime contract): count
     the deoptimization.  The deopt arm then re-runs the site's original
     indirect call, which dispatches like any other call.  The call
     itself charges the usual one unit at its call site, identically in
     every tier. *)
  Hashtbl.replace t "llvm_deopt" (fun mach _ ->
      mach.deopts <- mach.deopts + 1;
      Rvoid);
  (* -- the setjmp/longjmp runtime (paper section 2.4) -- *)
  Hashtbl.replace t "llvm_sjlj_throw" (fun mach args ->
      match args with
      | [ Rint (_, buf); Rint (_, v) ] ->
        mach.sjlj <- Some (buf, v);
        Rvoid
      | _ -> Memory.trap "llvm_sjlj_throw: bad arguments");
  Hashtbl.replace t "llvm_sjlj_target" (fun mach _ ->
      match mach.sjlj with
      | Some (buf, _) -> Rint (Ltype.Long, buf)
      | None -> Rint (Ltype.Long, 0L));
  Hashtbl.replace t "llvm_sjlj_value" (fun mach _ ->
      match mach.sjlj with
      | Some (_, v) -> Rint (Ltype.Int, normalize_int Ltype.Int v)
      | None -> Rint (Ltype.Int, 0L));
  Hashtbl.replace t "llvm_sjlj_clear" (fun mach _ ->
      mach.sjlj <- None;
      Rvoid);
  (* -- the pool-allocation runtime (paper sections 3.3 / 4.2.1) -- *)
  Hashtbl.replace t "llvm_poolinit" (fun mach _ ->
      let pool = Memory.alloc mach.mem 8 in
      Hashtbl.replace mach.pools pool (ref []);
      Rptr pool);
  Hashtbl.replace t "llvm_poolalloc" (fun mach args ->
      match args with
      | [ Rptr pool; Rint (_, size) ] -> (
        match Hashtbl.find_opt mach.pools pool with
        | Some members ->
          let p = Memory.alloc mach.mem (Int64.to_int size) in
          members := p :: !members;
          Rptr p
        | None -> Memory.trap "llvm_poolalloc: not a pool")
      | _ -> Memory.trap "llvm_poolalloc: bad arguments");
  Hashtbl.replace t "llvm_poolfree" (fun mach args ->
      match args with
      | [ Rptr pool; Rptr p ] ->
        if not (Hashtbl.mem mach.pools pool) then
          Memory.trap "llvm_poolfree: not a pool";
        Memory.free mach.mem p;
        Rvoid
      | _ -> Memory.trap "llvm_poolfree: bad arguments");
  Hashtbl.replace t "llvm_pooldestroy" (fun mach args ->
      match args with
      | [ Rptr pool ] -> (
        match Hashtbl.find_opt mach.pools pool with
        | Some members ->
          (* bulk deallocation: everything still live goes at once *)
          List.iter
            (fun p -> if Memory.is_live mach.mem p then Memory.free mach.mem p)
            !members;
          Hashtbl.remove mach.pools pool;
          Memory.free mach.mem pool;
          Rvoid
        | None -> Memory.trap "llvm_pooldestroy: not a pool")
      | _ -> Memory.trap "llvm_pooldestroy: bad arguments");
  Hashtbl.replace t "llvm_bounds_check" (fun _ args ->
      match args with
      | [ Rint (_, idx); Rint (_, len) ] ->
        if Int64.unsigned_compare idx len >= 0 then
          Memory.trap "array index %Ld out of bounds (length %Ld)" idx len
        else Rvoid
      | _ -> Memory.trap "llvm_bounds_check: bad arguments");
  t

(* Filled with [exec_func] at module initialization (it is defined
   below); [create] snapshots it, so a fresh machine interprets. *)
let default_dispatch : (machine -> func -> rtval list -> outcome) ref =
  ref (fun _ _ _ -> Memory.trap "execution engine not initialized")

let create (m : modul) : machine =
  let mach =
    { modul = m; mem = Memory.create (); globals = Ids.create 32;
      func_addr = Ids.create 32; func_of_id = Ids.create 32; frames = Ids.create 32;
      fuel = default_fuel; out = Buffer.create 256; exc = None; sjlj = None;
      block_counts = Hashtbl.create 256; call_counts = Hashtbl.create 16;
      pools = Hashtbl.create 8;
      profiling = false; deopts = 0; dispatch = !default_dispatch }
  in
  (* Code addresses first: initializers may reference functions. *)
  List.iteri
    (fun k f ->
      let id = Memory.func_id_base + k in
      Ids.replace mach.func_addr f.fid (Memory.addr_of ~id ~offset:0);
      Ids.replace mach.func_of_id id f)
    m.mfuncs;
  (* Allocate all globals, then write initializers (they may point at
     each other). *)
  List.iter
    (fun g ->
      let size = Ltype.size_of m.mtypes g.gty in
      Ids.replace mach.globals g.gid (Memory.alloc mach.mem size))
    m.mglobals;
  List.iter
    (fun g ->
      match g.ginit with
      | Some c ->
        write_const mach m.mtypes (Ids.find mach.globals g.gid) g.gty c
      | None -> ())
    m.mglobals;
  mach

(* -- Instruction evaluation ------------------------------------------------- *)

let rt_binop op (a : rtval) (b : rtval) : rtval =
  match (a, b) with
  | Rint (k, x), Rint (_, y) -> (
    match Fold.int_binop_exn k op x y with
    | r -> Rint (k, r)
    | exception Fold.Undefined -> Memory.trap "integer division by zero")
  | Rfloat (t, x), Rfloat (_, y) ->
    (* same table as Fold.float_binop, with the result rounded through
       single precision for Float; written out so the operands stay
       unboxed on the hot path *)
    let r =
      match op with
      | Add -> x +. y
      | Sub -> x -. y
      | Mul -> x *. y
      | Div -> x /. y
      | Rem -> Float.rem x y
      | _ -> Memory.trap "bad float operation"
    in
    Rfloat
      (t, if t = Ltype.Float then Int32.float_of_bits (Int32.bits_of_float r) else r)
  | Rbool x, Rbool y -> (
    match op with
    | And -> rbool (x && y)
    | Or -> rbool (x || y)
    | Xor -> rbool (x <> y)
    | Add | Sub | Mul | Div | Rem | Shl | Shr -> Memory.trap "bool arithmetic"
    | _ -> Memory.trap "bad bool operation")
  (* pointer arithmetic after casts: treat as 64-bit unsigned *)
  | Rptr x, Rint (_, y) | Rint (_, y), Rptr x | Rptr x, Rptr y -> (
    match Fold.int_binop_exn Ltype.Ulong op x y with
    | r -> Rptr r
    | exception Fold.Undefined -> Memory.trap "pointer arithmetic division by zero")
  | _ -> Memory.trap "binary operation on mismatched values"

let rt_cmp op (a : rtval) (b : rtval) : rtval =
  match (a, b) with
  | Rint (k, x), Rint (_, y) -> rbool (Fold.int_cmp k op x y)
  | Rfloat (_, x), Rfloat (_, y) -> rbool (Fold.float_cmp op x y)
  | Rptr x, Rptr y | Rptr x, Rint (_, y) | Rint (_, x), Rptr y ->
    rbool (Fold.int_cmp Ltype.Ulong op x y)
  | Rbool x, Rbool y ->
    let xi = if x then 1L else 0L and yi = if y then 1L else 0L in
    rbool (Fold.int_cmp Ltype.Ubyte op xi yi)
  | _ -> Memory.trap "comparison on mismatched values"

let as_ptr = function
  | Rptr p -> p
  | Rint (_, v) -> v
  | _ -> Memory.trap "pointer expected"

let as_int = function
  | Rint (_, v) -> v
  | Rbool b -> if b then 1L else 0L
  | _ -> Memory.trap "integer expected"

let as_bool = function
  | Rbool b -> b
  | Rint (_, v) -> v <> 0L
  | _ -> Memory.trap "bool expected"

(* -- Words -------------------------------------------------------------------

   A value whose static type is an integer of 32 bits or fewer, or bool,
   is a "word": the bytecode tier keeps it unboxed, as an immediate int
   holding [Fold]'s canonical value (a bool as 0 or 1).  Inside a
   function such a value always has its type's exact shape, since every
   instruction that makes one makes it from its own type.  Only a call
   boundary can bring in another shape: an argument or a call result,
   through a function pointer cast to a different type.  Both tiers
   check there with [word_of_rtval], so both trap with the same text at
   the same point. *)

(* Is the resolved type [t] a word type? *)
let is_word (t : Ltype.t) : bool =
  match t with
  | Ltype.Bool -> true
  | Ltype.Integer k -> Ltype.int_bits k <= 32
  | _ -> false

let shape_name = function
  | Rvoid -> "void"
  | Rbool _ -> "bool"
  | Rint (k, _) -> Ltype.to_string (Ltype.Integer k)
  | Rfloat (t, _) -> Ltype.to_string t
  | Rptr _ -> "pointer"

let boundary_trap (ty : Ltype.t) (v : rtval) =
  Memory.trap "call boundary: %s value where %s expected" (shape_name v)
    (Ltype.to_string ty)

let word_of_rtval (ty : Ltype.t) (v : rtval) : int =
  match (ty, v) with
  | Ltype.Bool, Rbool b -> Bool.to_int b
  | Ltype.Integer k, Rint (k', x) when k = k' ->
    let w = Int64.to_int x in
    if Int64.of_int w = x && Fold.word_norm k w = w then w
    else boundary_trap ty v
  | _ -> boundary_trap ty v

let rtval_of_word (ty : Ltype.t) (w : int) : rtval =
  match ty with
  | Ltype.Bool -> rbool (w <> 0)
  | Ltype.Integer k -> Rint (k, Int64.of_int w)
  | _ -> invalid_arg "Interp.rtval_of_word"

(* [v], entering a slot of static type [ty] at a call boundary, after
   the word check when [ty] is a word type *)
let checked_entry table (ty : Ltype.t) (v : rtval) : rtval =
  let t = Ltype.resolve table ty in
  if is_word t then ignore (word_of_rtval t v);
  v

(* getelementptr address computation (paper section 2.2). *)
let gep_address table (base : int64) (ptr_ty : Ltype.t)
    (indices : (Ltype.t * rtval) list) : int64 =
  match Ltype.resolve table ptr_ty with
  | Ltype.Pointer pointee ->
    let addr = ref base in
    let cur = ref pointee in
    List.iteri
      (fun n (_, idx) ->
        if n = 0 then
          (* first index steps over the pointer: scale by pointee size *)
          addr :=
            Int64.add !addr
              (Int64.mul (as_int idx) (Int64.of_int (Ltype.size_of table !cur)))
        else
          match Ltype.resolve table !cur with
          | Ltype.Array (_, elt) ->
            addr :=
              Int64.add !addr
                (Int64.mul (as_int idx) (Int64.of_int (Ltype.size_of table elt)));
            cur := elt
          | Ltype.Struct _ as s ->
            let k = Int64.to_int (as_int idx) in
            addr := Int64.add !addr (Int64.of_int (Ltype.field_offset table s k));
            cur := Ltype.field_type table s k
          | t -> Memory.trap "gep into non-aggregate %s" (Ltype.to_string t))
      indices;
    !addr
  | t -> Memory.trap "gep base is not a pointer: %s" (Ltype.to_string t)

(* -- Function execution ----------------------------------------------------- *)

(* The section 3.5 instrumentation: block and call-target counters,
   free of fuel and shared verbatim by both tiers.  A count that is
   already there is bumped in place, with no allocation. *)
let bump (counts : (int, int) Hashtbl.t) (key : int) : unit =
  match Hashtbl.find counts key with
  | n -> Hashtbl.replace counts key (n + 1)
  | exception Not_found -> Hashtbl.replace counts key 1

let count_block (mach : machine) (bid : int) : unit =
  if mach.profiling then bump mach.block_counts bid

let record_call_target (mach : machine) ~(site : int) (fn : func) : unit =
  let targets =
    match Hashtbl.find mach.call_counts site with
    | t -> t
    | exception Not_found ->
      let t = Hashtbl.create 4 in
      Hashtbl.replace mach.call_counts site t;
      t
  in
  bump targets fn.fid

(* The frame slot no instruction has written yet: a value no evaluation
   returns, recognized by its address. *)
let unset : rtval = Rptr (Int64.of_int (Sys.opaque_identity (-1)))

(* [f]'s frame layout, numbered on its first run on this machine: its
   arguments take slots 0 .. n-1 in order, its instructions the rest. *)
let frame_layout (mach : machine) (f : func) : Ids.Numbering.t =
  match Ids.find mach.frames f.fid with
  | layout -> layout
  | exception Not_found ->
    let layout = Ids.Numbering.create (List.length f.fargs + instr_count f) in
    List.iter (fun a -> ignore (Ids.Numbering.add layout a.aid)) f.fargs;
    iter_instrs (fun i -> ignore (Ids.Numbering.add layout i.iid)) f;
    Ids.replace mach.frames f.fid layout;
    layout

(* The value phi [i] takes on the edge from [p]: the first entry, from
   operand [k] on, naming [p]. *)
let rec phi_input (i : instr) (p : block) (k : int) : value =
  let ops = i.operands in
  if k + 1 >= Array.length ops then
    Memory.trap "phi %%%s has no entry for predecessor %%%s" i.iname p.bname
  else
    match ops.(k + 1) with
    | Vblock blk when blk == p -> ops.(k)
    | _ -> phi_input i p (k + 2)

(* One activation of a function: the values of its arguments and
   instructions, in the slots its layout numbers, and the stack
   allocations to release when it returns. *)
type frame = {
  mach : machine;
  layout : Ids.Numbering.t;
  slots : rtval array;
  mutable stack_allocs : int64 list;
}

(* the value in [id]'s slot, or [unset] when it has none *)
let read (fr : frame) (id : int) : rtval =
  let k = Ids.Numbering.find fr.layout id in
  if k < 0 then unset else Array.unsafe_get fr.slots k

let set (fr : frame) (i : instr) (v : rtval) : unit =
  fr.slots.(Ids.Numbering.find fr.layout i.iid) <- v

let eval (fr : frame) (v : value) : rtval =
  match v with
  | Vconst c -> const_rtval fr.mach fr.mach.modul.mtypes c
  | Vinstr i ->
    let r = read fr i.iid in
    if r == unset then Memory.trap "read of unevaluated instruction %%%s" i.iname
    else r
  | Varg a ->
    let r = read fr a.aid in
    if r == unset then Memory.trap "unbound argument %%%s" a.aname else r
  | Vglobal g -> Rptr (Ids.find fr.mach.globals g.gid)
  | Vfunc fn -> Rptr (func_address fr.mach fn)
  | Vblock _ -> Memory.trap "block used as a value"

(* operands [k ..] of [ops], evaluated left to right *)
let rec eval_from (fr : frame) (ops : value array) (k : int) : rtval list =
  if k >= Array.length ops then []
  else
    let v = eval fr ops.(k) in
    v :: eval_from fr ops (k + 1)

let resolve_callee (fr : frame) (site : instr) : func =
  match site.operands.(0) with
  | Vfunc fn -> fn
  | Vconst (Cfunc fn) -> fn
  | Vconst (Ccast (_, Cfunc fn)) -> fn (* a constant address: direct *)
  | v -> (
    let addr = as_ptr (eval fr v) in
    match Ids.find fr.mach.func_of_id (Memory.id_of addr) with
    | fn ->
      if fr.mach.profiling then record_call_target fr.mach ~site:site.iid fn;
      fn
    | exception Not_found -> Memory.trap "indirect call to non-code address %Lx" addr)

let finish (fr : frame) (out : outcome) : outcome =
  List.iter (Memory.release_stack fr.mach.mem) fr.stack_allocs;
  out

(* Execute [b], entered from its CFG predecessor [p]. *)
let rec run_block (fr : frame) (p : block) (b : block) : outcome =
  count_block fr.mach b.bid;
  run_phis fr p b.instrs;
  run_instrs fr b b.instrs

(* Phis evaluate in parallel against the incoming edge from [p]: each
   input is read on the way down the block, and every phi is written on
   the way back, after all of them have been read. *)
and run_phis (fr : frame) (p : block) (instrs : instr list) : unit =
  match instrs with
  | [] -> ()
  | i :: rest when i.iop = Phi ->
    let v = eval fr (phi_input i p 0) in
    run_phis fr p rest;
    set fr i v
  | _ :: rest -> run_phis fr p rest

and run_instrs (fr : frame) (b : block) (instrs : instr list) : outcome =
  let mach = fr.mach and table = fr.mach.modul.mtypes in
  match instrs with
  | [] -> Memory.trap "fell off the end of block %%%s" b.bname
  | i :: rest -> (
    (* phis ran on entry to the block, wherever they sit, and cost
       no fuel *)
    if i.iop <> Phi then begin
      mach.fuel <- mach.fuel - 1;
      if mach.fuel <= 0 then fuel_trap ()
    end;
    match i.iop with
    | Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr ->
      set fr i (rt_binop i.iop (eval fr i.operands.(0)) (eval fr i.operands.(1)));
      run_instrs fr b rest
    | SetEQ | SetNE | SetLT | SetGT | SetLE | SetGE ->
      set fr i (rt_cmp i.iop (eval fr i.operands.(0)) (eval fr i.operands.(1)));
      run_instrs fr b rest
    | Cast ->
      set fr i (cast_rtval mach table (eval fr i.operands.(0)) i.ity);
      run_instrs fr b rest
    | Select ->
      set fr i
        (if as_bool (eval fr i.operands.(0)) then eval fr i.operands.(1)
         else eval fr i.operands.(2));
      run_instrs fr b rest
    | Alloca | Malloc ->
      let elt = Option.get i.alloc_ty in
      let count =
        if Array.length i.operands > 0 then
          Int64.to_int (as_int (eval fr i.operands.(0)))
        else 1
      in
      if count < 0 then Memory.trap "negative allocation count";
      let on_stack = i.iop = Alloca in
      let addr =
        Memory.alloc mach.mem ~on_stack (count * Ltype.size_of table elt)
      in
      if on_stack then fr.stack_allocs <- addr :: fr.stack_allocs;
      set fr i (Rptr addr);
      run_instrs fr b rest
    | Free ->
      Memory.free mach.mem (as_ptr (eval fr i.operands.(0)));
      run_instrs fr b rest
    | Load ->
      let ptr = as_ptr (eval fr i.operands.(0)) in
      set fr i (load_scalar mach table ptr i.ity);
      run_instrs fr b rest
    | Store ->
      let v = eval fr i.operands.(0) in
      let ptr = as_ptr (eval fr i.operands.(1)) in
      let vty = Ir.type_of table i.operands.(0) in
      store_scalar mach table ptr vty v;
      run_instrs fr b rest
    | Gep ->
      let base = as_ptr (eval fr i.operands.(0)) in
      let ptr_ty = Ir.type_of table i.operands.(0) in
      let indices =
        List.tl (Array.to_list i.operands)
        |> List.map (fun v -> (Ir.type_of table v, eval fr v))
      in
      set fr i (Rptr (gep_address table base ptr_ty indices));
      run_instrs fr b rest
    | Phi -> run_instrs fr b rest
    | Call -> (
      let callee = resolve_callee fr i in
      let args = eval_from fr i.operands 1 in
      match mach.dispatch mach callee args with
      | Normal r ->
        if i.ity <> Ltype.Void then set fr i (checked_entry table i.ity r);
        run_instrs fr b rest
      | Unwinding -> finish fr Unwinding)
    | Invoke -> (
      let callee = resolve_callee fr i in
      let args = eval_from fr i.operands 3 in
      match mach.dispatch mach callee args with
      | Normal r ->
        if i.ity <> Ltype.Void then set fr i (checked_entry table i.ity r);
        run_block fr b (as_block i.operands.(1))
      | Unwinding -> run_block fr b (as_block i.operands.(2)))
    | Ret ->
      finish fr
        (Normal
           (if Array.length i.operands = 1 then eval fr i.operands.(0)
            else Rvoid))
    | Br ->
      if Array.length i.operands = 1 then
        run_block fr b (as_block i.operands.(0))
      else if as_bool (eval fr i.operands.(0)) then
        run_block fr b (as_block i.operands.(1))
      else run_block fr b (as_block i.operands.(2))
    | Switch ->
      let v = eval fr i.operands.(0) in
      let target =
        let found =
          List.find_opt
            (fun (c, _) ->
              match (const_rtval mach table c, v) with
              | Rint (_, x), Rint (_, y) -> x = y
              | Rbool x, Rbool y -> x = y
              | _ -> false)
            (switch_cases i)
        in
        match found with
        | Some (_, blk) -> blk
        | None -> as_block i.operands.(1)
      in
      run_block fr b target
    | Unwind -> finish fr Unwinding)

(* Arguments into their slots, left to right, each through the call
   boundary's word check. *)
let rec bind_args table (slots : rtval array) k (args : rtval list)
    (fargs : arg list) =
  match (args, fargs) with
  | v :: args, a :: fargs ->
    slots.(k) <- checked_entry table a.aty v;
    bind_args table slots (k + 1) args fargs
  | _ -> ()

let exec_func (mach : machine) (f : func) (args : rtval list) : outcome =
  if is_declaration f then begin
    match Hashtbl.find_opt builtins f.fname with
    | Some impl -> Normal (impl mach args)
    | None -> Memory.trap "call to undefined external function %s" f.fname
  end
  else begin
    let layout = frame_layout mach f in
    let slots = Array.make (Ids.Numbering.count layout) unset in
    if List.length args <> List.length f.fargs then
      Memory.trap "arity mismatch calling %s" f.fname;
    bind_args mach.modul.mtypes slots 0 args f.fargs;
    let fr = { mach; layout; slots; stack_allocs = [] } in
    (* the entry block has no predecessor, so no phis run *)
    let entry = entry_block f in
    count_block mach entry.bid;
    run_instrs fr entry entry.instrs
  end

let () = default_dispatch := exec_func

(* -- Entry points ------------------------------------------------------------ *)

type status =
  [ `Returned of rtval | `Unwound | `Exited of int | `Trapped of string ]

type run_result = {
  status : status;
  output : string;
  instructions : int;
}

let run_function ?(fuel = default_fuel) (mach : machine) (f : func)
    (args : rtval list) : run_result =
  mach.fuel <- fuel;
  let start_fuel = mach.fuel in
  let status =
    try
      match mach.dispatch mach f args with
      | Normal v -> `Returned v
      | Unwinding -> `Unwound
    with
    | Memory.Trap msg -> `Trapped msg
    | Exit_program code -> `Exited code
  in
  { status;
    output = Buffer.contents mach.out;
    instructions = start_fuel - mach.fuel }

let run_loaded ?fuel (mach : machine) : run_result =
  match find_func mach.modul "main" with
  | Some main -> run_function ?fuel mach main []
  | None ->
    { status = `Trapped "no main function"; output = ""; instructions = 0 }

let run_main ?fuel (m : modul) : run_result = run_loaded ?fuel (create m)

let out_of_fuel (r : run_result) : bool = r.status = `Trapped fuel_trap_msg

let exit_code : status -> int = function
  | `Returned (Rint (_, v)) -> Int64.to_int v land 0xff
  | `Returned _ -> 0
  | `Exited c -> c land 0xff
  | `Unwound -> 120
  | `Trapped _ -> 121

let pp_rtval fmt = function
  | Rvoid -> Fmt.string fmt "void"
  | Rbool b -> Fmt.bool fmt b
  | Rint (_, v) -> Fmt.pf fmt "%Ld" v
  | Rfloat (_, f) -> Fmt.float fmt f
  | Rptr p -> Fmt.pf fmt "0x%Lx" p

let status_to_string : status -> string = function
  | `Returned v -> Fmt.str "returned %a" pp_rtval v
  | `Unwound -> "unwound"
  | `Exited c -> Fmt.str "exited %d" c
  | `Trapped msg -> "trapped: " ^ msg

(* -- Comparing two runs -------------------------------------------------------- *)

type field = Status | Output | Instructions | Profile

let field_name = function
  | Status -> "status"
  | Output -> "output"
  | Instructions -> "instruction count"
  | Profile -> "profile"

(* Statuses compare by value, a returned float by its bit pattern: NaN
   equals itself, and two doubles that print alike under [%g] differ. *)
let same_status (a : status) (b : status) : bool =
  match (a, b) with
  | `Returned (Rfloat (ta, x)), `Returned (Rfloat (tb, y)) ->
    ta = tb && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let same_counts a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold (fun k n same -> same && Hashtbl.find_opt b k = Some n) a true

let differences ?(fields = [ Status; Output; Instructions; Profile ])
    ((ra : run_result), ca) ((rb : run_result), cb) : field list =
  List.filter
    (function
      | Status -> not (same_status ra.status rb.status)
      | Output -> not (String.equal ra.output rb.output)
      | Instructions -> ra.instructions <> rb.instructions
      | Profile -> not (same_counts ca cb))
    fields
