(* Constant folding over the instruction set.

   [fold_binop]/[fold_cmp]/[fold_cast] evaluate an operation whose operands
   are constants, returning [None] when the operation cannot be folded
   (division by zero, pointer-typed operands, casts between incompatible
   shapes, ...).  The semantics match the execution engine exactly — the
   property tests in test/ check this by construction. *)

open Ir

(* Interpret the stored (sign- or zero-extended) int64 as an unsigned
   quantity for unsigned division/comparison/shift. *)
let to_unsigned bits (v : int64) =
  if bits = 64 then v
  else Int64.logand v (Int64.sub (Int64.shift_left 1L bits) 1L)

(* [word_binop_exn] and [int_binop_exn] are the one integer opcode
   table: total, raising [Undefined] on a zero divisor or a
   non-arithmetic opcode, so the execution engine's hot path allocates
   no option.  [int_binop] is the constant folder's view of it. *)
exception Undefined

(* -- Words ---------------------------------------------------------------

   An integer of 32 bits or fewer computes as an immediate OCaml int, a
   "word", holding the same canonical value as its stored int64.  The
   bytecode tier keeps such values unboxed; [int_binop_exn] and
   [int_cmp] run their sub-64-bit kinds through the same table, so
   every tier and the constant folder share one. *)

(* Three per-kind tables, written out so that an operation makes no
   call beyond them: the execution engine runs one per instruction.
   They take kinds of 32 bits or fewer. *)

(* [v]'s low bits, as many as [kind] has *)
let word_low kind (v : int) : int =
  match kind with
  | Ltype.Sbyte | Ltype.Ubyte -> v land 0xFF
  | Ltype.Short | Ltype.Ushort -> v land 0xFFFF
  | _ -> v land 0xFFFF_FFFF

(* [v] in [kind]'s canonical form: the low bits, sign-extended for
   signed kinds and zero-extended for unsigned ones *)
let word_norm kind (v : int) : int =
  match kind with
  | Ltype.Sbyte -> (v lsl (Sys.int_size - 8)) asr (Sys.int_size - 8)
  | Ltype.Short -> (v lsl (Sys.int_size - 16)) asr (Sys.int_size - 16)
  | Ltype.Int -> (v lsl (Sys.int_size - 32)) asr (Sys.int_size - 32)
  | _ -> word_low kind v

(* [v] as a signed int in [kind]'s order: an unsigned kind's low bits
   are non-negative, so plain int order, division and arithmetic shift
   on them are the unsigned ones *)
let word_key kind (v : int) : int =
  match kind with
  | Ltype.Sbyte | Ltype.Short | Ltype.Int -> v
  | _ -> word_low kind v

let word_binop_exn kind op (a : int) (b : int) : int =
  match op with
  | Add -> word_norm kind (a + b)
  | Sub -> word_norm kind (a - b)
  | Mul -> word_norm kind (a * b)
  | Div ->
    if b = 0 then raise Undefined
    else word_norm kind (word_key kind a / word_key kind b)
  | Rem ->
    if b = 0 then raise Undefined
    else word_norm kind (word_key kind a mod word_key kind b)
  | And -> word_norm kind (a land b)
  | Or -> word_norm kind (a lor b)
  | Xor -> word_norm kind (a lxor b)
  | Shl ->
    (* a count from the kind's width up to 63 shifts every low bit out *)
    let s = word_low kind b in
    if s >= 64 then 0 else word_norm kind (a lsl s)
  | Shr ->
    (* arithmetic on signed types, logical on unsigned (LLVM 1.x) *)
    let s = word_low kind b and a = word_key kind a in
    if s >= 64 then (if a < 0 then -1 else 0) else word_norm kind (a asr s)
  | _ -> raise Undefined

(* an ordering opcode on two ints *)
let order op (a : int) (b : int) : bool =
  match op with
  | SetEQ -> a = b
  | SetNE -> a <> b
  | SetLT -> a < b
  | SetGT -> a > b
  | SetLE -> a <= b
  | SetGE -> a >= b
  | _ -> invalid_arg "int_cmp"

let word_cmp kind op (a : int) (b : int) : bool =
  order op (word_key kind a) (word_key kind b)

let int_binop_exn kind op (a : int64) (b : int64) : int64 =
  if Ltype.int_bits kind < 64 then
    Int64.of_int (word_binop_exn kind op (Int64.to_int a) (Int64.to_int b))
  else
    let signed = Ltype.is_signed kind in
    (* 64-bit: normalization is the identity, and stored values are
       already canonical, so [to_unsigned] is too.  This is also the
       execution engine's hot path for boxed integers: no closures, and
       the result is the only allocation. *)
    match op with
    | Add -> Int64.add a b
    | Sub -> Int64.sub a b
    | Mul -> Int64.mul a b
    | Div ->
      if b = 0L then raise Undefined
      else if signed then
        if a = Int64.min_int && b = -1L then a else Int64.div a b
      else Int64.unsigned_div a b
    | Rem ->
      if b = 0L then raise Undefined
      else if signed then
        if a = Int64.min_int && b = -1L then 0L else Int64.rem a b
      else Int64.unsigned_rem a b
    | And -> Int64.logand a b
    | Or -> Int64.logor a b
    | Xor -> Int64.logxor a b
    | Shl ->
      let s = Int64.to_int b in
      if s >= 64 || s < 0 then 0L else Int64.shift_left a s
    | Shr ->
      let s = Int64.to_int b in
      if s < 0 || s >= 64 then (if signed && a < 0L then -1L else 0L)
      else if signed then Int64.shift_right a s
      else Int64.shift_right_logical a s
    | _ -> raise Undefined

let int_binop kind op (a : int64) (b : int64) : int64 option =
  match int_binop_exn kind op a b with
  | r -> Some r
  | exception Undefined -> None

let float_binop op (a : float) (b : float) : float option =
  match op with
  | Add -> Some (a +. b)
  | Sub -> Some (a -. b)
  | Mul -> Some (a *. b)
  | Div -> Some (a /. b)
  | Rem -> Some (Float.rem a b)
  | _ -> None

let fold_binop op (ca : const) (cb : const) : const option =
  match (ca, cb) with
  | Cint (Ltype.Integer k, a), Cint (_, b) ->
    Option.map (fun r -> cint k r) (int_binop k op a b)
  | Cfloat (t, a), Cfloat (_, b) ->
    Option.map
      (fun r ->
        let r = if t = Ltype.Float then Int32.float_of_bits (Int32.bits_of_float r) else r in
        Cfloat (t, r))
      (float_binop op a b)
  | Cbool a, Cbool b -> (
    match op with
    | And -> Some (Cbool (a && b))
    | Or -> Some (Cbool (a || b))
    | Xor -> Some (Cbool (a <> b))
    | _ -> None)
  | _ -> None

let int_cmp kind op (a : int64) (b : int64) : bool =
  if Ltype.int_bits kind < 64 then
    word_cmp kind op (Int64.to_int a) (Int64.to_int b)
  else if Ltype.is_signed kind then order op (Int64.compare a b) 0
  else order op (Int64.unsigned_compare a b) 0

let float_cmp op (a : float) (b : float) : bool =
  match op with
  | SetEQ -> a = b
  | SetNE -> a <> b
  | SetLT -> a < b
  | SetGT -> a > b
  | SetLE -> a <= b
  | SetGE -> a >= b
  | _ -> invalid_arg "float_cmp"

let fold_cmp op (ca : const) (cb : const) : const option =
  match (ca, cb) with
  | Cint (Ltype.Integer k, a), Cint (_, b) -> Some (Cbool (int_cmp k op a b))
  | Cfloat (_, a), Cfloat (_, b) -> Some (Cbool (float_cmp op a b))
  | Cbool a, Cbool b -> (
    match op with
    | SetEQ -> Some (Cbool (a = b))
    | SetNE -> Some (Cbool (a <> b))
    | SetLT -> Some (Cbool ((not a) && b))
    | SetGT -> Some (Cbool (a && not b))
    | SetLE -> Some (Cbool ((not a) || b))
    | SetGE -> Some (Cbool (a || not b))
    | _ -> None)
  | Cnull _, Cnull _ -> (
    match op with
    | SetEQ | SetLE | SetGE -> Some (Cbool true)
    | SetNE | SetLT | SetGT -> Some (Cbool false)
    | _ -> None)
  (* A global's address is never null. *)
  | (Cgvar _ | Cfunc _), Cnull _ | Cnull _, (Cgvar _ | Cfunc _) -> (
    match op with
    | SetEQ -> Some (Cbool false)
    | SetNE -> Some (Cbool true)
    | _ -> None)
  | _ -> None

(* Numeric value of a constant, for cast folding. *)
let const_as_int : const -> int64 option = function
  | Cbool b -> Some (if b then 1L else 0L)
  | Cint (_, v) -> Some v
  | Cnull _ -> Some 0L
  | Czero (Ltype.Integer _ | Ltype.Bool) -> Some 0L
  | _ -> None

let fold_cast (c : const) (target : Ltype.t) : const option =
  match (c, target) with
  | Cint (t, _), t' when t = t' -> Some c
  | _, Ltype.Bool -> (
    match c with
    | Cbool _ -> Some c
    | Cint (_, v) -> Some (Cbool (v <> 0L))
    | Cfloat (_, f) -> Some (Cbool (f <> 0.0))
    | _ -> None)
  | _, Ltype.Integer k -> (
    match c with
    | Cbool _ | Cint _ | Cnull _ ->
      Option.map (fun v -> cint k v) (const_as_int c)
    | Cfloat (_, f) -> Some (cint k (Int64.of_float f))
    | Cgvar _ | Cfunc _ | Ccast _ -> None (* address not known statically *)
    | _ -> None)
  | _, (Ltype.Float | Ltype.Double) -> (
    match c with
    | Cfloat (_, f) ->
      let f =
        if target = Ltype.Float then Int32.float_of_bits (Int32.bits_of_float f)
        else f
      in
      Some (Cfloat (target, f))
    | Cbool _ | Cint _ -> (
      match c with
      | Cint (Ltype.Integer k, v) when not (Ltype.is_signed k) ->
        let u = to_unsigned (Ltype.int_bits k) v in
        let f =
          if u >= 0L then Int64.to_float u
          else Int64.to_float u +. 18446744073709551616.0
        in
        Some (Cfloat (target, f))
      | _ -> Option.map (fun v -> Cfloat (target, Int64.to_float v)) (const_as_int c))
    | _ -> None)
  | Cnull _, Ltype.Pointer _ -> Some (Cnull target)
  | Cint (_, 0L), Ltype.Pointer _ -> Some (Cnull target)
  | (Cgvar _ | Cfunc _ | Ccast _), Ltype.Pointer _ -> Some (Ccast (target, c))
  | _ -> None

let fold_select cond iftrue iffalse =
  match cond with
  | Cbool true -> Some iftrue
  | Cbool false -> Some iffalse
  | _ -> None

(* Fold an instruction whose operands are all constants.  Returns the
   replacement constant, or None when the instruction cannot be folded. *)
let fold_instr (table : Ltype.table) (i : instr) : const option =
  let const_op k =
    match i.operands.(k) with Vconst c -> Some c | _ -> None
  in
  let all_consts () =
    let rec go k acc =
      if k < 0 then Some acc
      else match const_op k with
        | Some c -> go (k - 1) (c :: acc)
        | None -> None
    in
    go (Array.length i.operands - 1) []
  in
  ignore table;
  match i.iop with
  | op when is_binary op -> (
    match all_consts () with
    | Some [ a; b ] -> fold_binop op a b
    | _ -> None)
  | op when is_comparison op -> (
    match all_consts () with
    | Some [ a; b ] -> fold_cmp op a b
    | _ -> None)
  | Cast -> (
    match const_op 0 with
    | Some c -> fold_cast c i.ity
    | None -> None)
  | Select -> (
    match (const_op 0, const_op 1, const_op 2) with
    | Some c, Some t, Some f -> fold_select c t f
    | _ -> None)
  | _ -> None

(* Algebraic simplifications that do not require both operands constant:
   x+0, x*1, x*0, x-x, x&x, x|x, x^x, ... Returns a replacement value. *)
let simplify_instr (i : instr) : value option =
  let is_int_const n v =
    match v with Cint (_, x) -> x = Int64.of_int n | Cbool b -> b = (n = 1) | _ -> false
  in
  if Array.length i.operands <> 2 then None
  else
    let a = i.operands.(0) and b = i.operands.(1) in
    match (i.iop, a, b) with
    | Add, x, Vconst c when is_int_const 0 c -> Some x
    | Add, Vconst c, x when is_int_const 0 c -> Some x
    | Sub, x, Vconst c when is_int_const 0 c -> Some x
    | Mul, x, Vconst c when is_int_const 1 c -> Some x
    | Mul, Vconst c, x when is_int_const 1 c -> Some x
    | Mul, _, Vconst (Cint (t, 0L)) -> Some (Vconst (Cint (t, 0L)))
    | Mul, Vconst (Cint (t, 0L)), _ -> Some (Vconst (Cint (t, 0L)))
    | And, x, y when value_equal x y -> Some x
    | Or, x, y when value_equal x y -> Some x
    | (Sub | Xor), x, y when value_equal x y && Ltype.is_integer i.ity ->
      (match i.ity with
      | Ltype.Integer k -> Some (Vconst (cint k 0L))
      | _ -> None)
    | (Div | Rem), _, Vconst c when is_int_const 0 c -> None
    | Shl, x, Vconst c when is_int_const 0 c -> Some x
    | Shr, x, Vconst c when is_int_const 0 c -> Some x
    | _ -> None
