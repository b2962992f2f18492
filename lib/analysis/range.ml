(* Sparse, branch-aware interprocedural value-range analysis.

   An interval domain over the canonical integer representation the
   rest of the compiler uses ([Ir.normalize_int]: sign-extended bit
   patterns for signed kinds, zero-extended for unsigned).  Intervals
   are ordered as signed int64, which agrees with every kind's natural
   value order except Ulong; Ulong facts are therefore only derived
   while the interval stays within [0, max_int].

   The analysis is sparse and optimistic: a worklist over def-use
   chains starts every register at bottom and only grows it, with
   per-register widening counters (aggressive at loop-header phis,
   identified through {!Loops}) followed by two descending sweeps that
   recover precision lost to widening.  Branch conditions refine the
   ranges seen in dominated blocks: each block carries a chain of
   guard facts accumulated down the dominator tree, and phi inputs are
   refined per incoming edge.  Argument and return ranges propagate
   across the call graph in callee-first SCC order ({!Callgraph});
   address-taken, external, and externally-visible functions get full
   argument ranges. *)

open Llvm_ir
open Ir

(* ---------- the interval domain ---------- *)

type interval = Bot | Itv of int64 * int64

let top = Itv (Int64.min_int, Int64.max_int)
let singleton n = Itv (n, n)
let min64 (a : int64) (b : int64) = if a <= b then a else b
let max64 (a : int64) (b : int64) = if a >= b then a else b

(* [join] and [meet] return an operand unchanged when it already is the
   result, so the common no-change case allocates nothing. *)
let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Itv (a1, b1), Itv (a2, b2) ->
    if a1 <= a2 && b1 >= b2 then a
    else if a2 <= a1 && b2 >= b1 then b
    else Itv (min64 a1 a2, max64 b1 b2)

let meet a b =
  match (a, b) with
  | Bot, _ | _, Bot -> Bot
  | Itv (a1, b1), Itv (a2, b2) ->
    if a1 >= a2 && b1 <= b2 then a
    else if a2 >= a1 && b2 <= b1 then b
    else
      let lo = max64 a1 a2 and hi = min64 b1 b2 in
      if lo > hi then Bot else Itv (lo, hi)

let equal a b =
  a == b
  ||
  match (a, b) with
  | Bot, Bot -> true
  | Itv (a1, b1), Itv (a2, b2) -> Int64.equal a1 a2 && Int64.equal b1 b2
  | _ -> false

let subset a b =
  match (a, b) with
  | Bot, _ -> true
  | _, Bot -> false
  | Itv (a1, b1), Itv (a2, b2) -> a1 >= a2 && b1 <= b2

let contains i (n : int64) =
  match i with Bot -> false | Itv (a, b) -> a <= n && n <= b

let is_singleton = function Itv (a, b) when a = b -> Some a | _ -> None

let pp_interval ppf = function
  | Bot -> Fmt.string ppf "empty"
  | Itv (a, b) ->
    if a = b then Fmt.pf ppf "[%Ld]" a else Fmt.pf ppf "[%Ld,%Ld]" a b

(* ---------- integer kinds ---------- *)

type ikind = Kbool | Kint of Ltype.int_kind

let kind_range (k : Ltype.int_kind) : int64 * int64 =
  let bits = Ltype.int_bits k in
  if bits = 64 then (Int64.min_int, Int64.max_int)
  else if Ltype.is_signed k then
    ( Int64.neg (Int64.shift_left 1L (bits - 1)),
      Int64.sub (Int64.shift_left 1L (bits - 1)) 1L )
  else (0L, Int64.sub (Int64.shift_left 1L bits) 1L)

(* Per-kind constants, built once: the full interval of each kind and
   its [Some (Kint k)], so neither is allocated on a query. *)
let kind_index = function
  | Ltype.Sbyte -> 0
  | Ubyte -> 1
  | Short -> 2
  | Ushort -> 3
  | Int -> 4
  | Uint -> 5
  | Long -> 6
  | Ulong -> 7

let all_kinds = Ltype.[| Sbyte; Ubyte; Short; Ushort; Int; Uint; Long; Ulong |]

let full_kinds =
  Array.map
    (fun k ->
      let lo, hi = kind_range k in
      Itv (lo, hi))
    all_kinds

let full_of_kind k = full_kinds.(kind_index k)
let full_bool = Itv (0L, 1L)
let full_of = function Kbool -> full_bool | Kint k -> full_of_kind k
let clamp k i = meet i (full_of k)

(* Interval rules below compare representations as signed int64; that
   order is wrong for Ulong values past max_int, so bail out there. *)
let order_ok k (i : interval) =
  match (k, i) with
  | Kint Ltype.Ulong, Itv (lo, _) -> lo >= 0L
  | _ -> true

let some_kinds = Array.map (fun k -> Some (Kint k)) all_kinds
let some_bool = Some Kbool

let kind_of_ty (table : Ltype.table) (ty : Ltype.t) : ikind option =
  let of_resolved = function
    | Ltype.Bool -> some_bool
    | Ltype.Integer k -> some_kinds.(kind_index k)
    | _ -> None
  in
  match ty with
  | Ltype.Named _ -> (
    match Ltype.resolve table ty with
    | t -> of_resolved t
    | exception Ltype.Unresolved _ -> None)
  | t -> of_resolved t

(* ---------- overflow-checked 64-bit corner arithmetic ---------- *)

let add_ck a b =
  let s = Int64.add a b in
  if a >= 0L = (b >= 0L) && s >= 0L <> (a >= 0L) then None else Some s

let sub_ck a b =
  let s = Int64.sub a b in
  if a >= 0L <> (b >= 0L) && s >= 0L <> (a >= 0L) then None else Some s

let mul_ck a b =
  if a = 0L || b = 0L then Some 0L
  else if a = Int64.min_int || b = Int64.min_int then None
  else
    let p = Int64.mul a b in
    if Int64.div p b = a then Some p else None

(* The hull of two or four corners; [None] when any corner is. *)
let corners2 x y =
  match (x, y) with
  | Some x, Some y -> Some (Itv (min64 x y, max64 x y))
  | _ -> None

let corners4 w x y z =
  match (w, x, y, z) with
  | Some w, Some x, Some y, Some z ->
    Some (Itv (min64 (min64 w x) (min64 y z), max64 (max64 w x) (max64 y z)))
  | _ -> None

(* The mathematical (unwrapped) result of an arithmetic op on two
   intervals; [None] when a bound escapes int64.  This is what the
   signed-overflow checker compares against the kind's range. *)
let exact_binop (op : opcode) (x : interval) (y : interval) : interval option =
  match (x, y) with
  | Bot, _ | _, Bot -> Some Bot
  | Itv (a, b), Itv (c, d) -> (
    match op with
    | Add -> corners2 (add_ck a c) (add_ck b d)
    | Sub -> corners2 (sub_ck a d) (sub_ck b c)
    | Mul -> corners4 (mul_ck a c) (mul_ck a d) (mul_ck b c) (mul_ck b d)
    | _ -> None)

let div_ck a b =
  if b = 0L then None
  else if a = Int64.min_int && b = -1L then None
  else Some (Int64.div a b)

(* Shrink a divisor interval away from zero where an endpoint allows:
   on any execution that completes, the divisor was nonzero. *)
let divisor_nonzero = function
  | Bot -> Bot
  | Itv (0L, 0L) -> Bot
  | Itv (0L, d) -> Itv (1L, d)
  | Itv (c, 0L) -> Itv (c, -1L)
  | i -> i

(* Smallest value of the form 2^k - 1 that is >= v (v nonneg). *)
let ceil_pow2m1 (v : int64) : int64 =
  let x = ref 0L in
  while !x < v do
    x := Int64.add (Int64.mul !x 2L) 1L
  done;
  !x

let bits_of = function Kint k -> Ltype.int_bits k | Kbool -> 1

(* A result that leaves the kind's range may have wrapped anywhere. *)
let wrap full r = if subset r full then r else full

let ibinop (k : ikind) (op : opcode) (x : interval) (y : interval) : interval =
  let full = full_of k in
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Itv (a, b), Itv (c, d) ->
    if not (order_ok k x && order_ok k y) then full
    else
      (match op with
      | Add | Sub | Mul -> (
        match exact_binop op x y with Some r -> wrap full r | None -> full)
      | Div -> (
        match divisor_nonzero y with
        | Bot -> Bot
        | Itv (c, d) when c > 0L || d < 0L -> (
          match corners4 (div_ck a c) (div_ck a d) (div_ck b c) (div_ck b d) with
          | Some r -> wrap full r
          | None -> full)
        | _ -> full)
      | Rem -> (
        match divisor_nonzero y with
        | Bot -> Bot
        | Itv (c, d) ->
          if c = Int64.min_int then full
          else
            let m = Int64.sub (max64 (Int64.abs c) (Int64.abs d)) 1L in
            let lo = if a >= 0L then 0L else max64 a (Int64.neg m) in
            let hi = if b <= 0L then 0L else min64 b m in
            wrap full (Itv (lo, hi)))
      | And ->
        (* clearing bits of a nonnegative value can only shrink it *)
        let r = full in
        let r = if a >= 0L then meet r (Itv (0L, b)) else r in
        let r = if c >= 0L then meet r (Itv (0L, d)) else r in
        r
      | Or | Xor ->
        if a >= 0L && c >= 0L then
          let hi = ceil_pow2m1 (max64 b d) in
          if op = Or then wrap full (Itv (max64 a c, hi)) else wrap full (Itv (0L, hi))
        else full
      | Shl ->
        if c >= 0L && d < Int64.of_int (bits_of k) && d <= 62L then
          let factor =
            Itv
              ( Int64.shift_left 1L (Int64.to_int c),
                Int64.shift_left 1L (Int64.to_int d) )
          in
          (match exact_binop Mul x factor with Some r -> wrap full r | None -> full)
        else full
      | Shr ->
        let signed = match k with Kint kk -> Ltype.is_signed kk | Kbool -> false in
        if c >= 0L && d < Int64.of_int (bits_of k) && (signed || a >= 0L) then
          let sc = Int64.to_int c and sd = Int64.to_int d in
          match
            corners4
              (Some (Int64.shift_right a sc))
              (Some (Int64.shift_right a sd))
              (Some (Int64.shift_right b sc))
              (Some (Int64.shift_right b sd))
          with
          | Some r -> wrap full r
          | None -> full
        else full
      | _ -> full)

let cmp_op (k : ikind) (op : opcode) (x : interval) (y : interval) : interval =
  let unknown = Itv (0L, 1L) in
  match (x, y) with
  | Bot, _ | _, Bot -> Bot
  | Itv (a, b), Itv (c, d) ->
    if not (order_ok k x && order_ok k y) then unknown
    else
      let t = singleton 1L and f = singleton 0L in
      (match op with
      | SetEQ ->
        if a = b && c = d && a = c then t
        else if b < c || d < a then f
        else unknown
      | SetNE ->
        if a = b && c = d && a = c then f
        else if b < c || d < a then t
        else unknown
      | SetLT -> if b < c then t else if a >= d then f else unknown
      | SetLE -> if b <= c then t else if a > d then f else unknown
      | SetGT -> if a > d then t else if b <= c then f else unknown
      | SetGE -> if a >= d then t else if b < c then f else unknown
      | _ -> unknown)

(* Casts preserve the canonical representation whenever the source
   interval already fits the target kind (including same-width sign
   reinterpretation); otherwise the result may wrap arbitrarily. *)
let cast_to (k : ikind) (x : interval) : interval =
  match k with
  | Kbool -> (
    match x with
    | Bot -> Bot
    | Itv (a, b) ->
      if a = 0L && b = 0L then singleton 0L
      else if a > 0L || b < 0L then singleton 1L
      else Itv (0L, 1L))
  | Kint _ -> (
    match x with
    | Bot -> Bot
    | _ -> if subset x (full_of k) then x else full_of k)

let rec const_interval (table : Ltype.table) (c : const) : interval =
  match c with
  | Cbool b -> singleton (if b then 1L else 0L)
  | Cint (ty, v) -> (
    match kind_of_ty table ty with
    | Some (Kint k) -> singleton (normalize_int k v)
    | Some Kbool -> singleton (if v = 0L then 0L else 1L)
    | None -> singleton v)
  | Czero ty -> (
    match kind_of_ty table ty with Some _ -> singleton 0L | None -> top)
  | Ccast (ty, c') -> (
    match kind_of_ty table ty with
    | Some k -> cast_to k (const_interval table c')
    | None -> top)
  | Cundef _ | Cnull _ | Cfloat _ | Cgvar _ | Cfunc _ | Carray _ | Cstruct _ ->
    top

(* ---------- guard facts ---------- *)

type fact =
  | Fcmp of instr * bool  (** this comparison took the given truth value *)
  | Feq of value * int64  (** unique switch case: value equals constant *)

let negate_cmp = function
  | SetEQ -> SetNE
  | SetNE -> SetEQ
  | SetLT -> SetGE
  | SetGE -> SetLT
  | SetGT -> SetLE
  | SetLE -> SetGT
  | op -> op

let swap_cmp = function
  | SetLT -> SetGT
  | SetGT -> SetLT
  | SetLE -> SetGE
  | SetGE -> SetLE
  | op -> op

(* Values of v compatible with "v op y" for some y in the interval. *)
let constrain_by (op : opcode) (y : interval) : interval =
  match y with
  | Bot -> Bot
  | Itv (c, d) -> (
    match op with
    | SetEQ -> Itv (c, d)
    | SetLT -> if d = Int64.min_int then Bot else Itv (Int64.min_int, Int64.pred d)
    | SetLE -> Itv (Int64.min_int, d)
    | SetGT -> if c = Int64.max_int then Bot else Itv (Int64.succ c, Int64.max_int)
    | SetGE -> Itv (c, Int64.max_int)
    | _ -> top)

let shave_endpoint iv n =
  match iv with
  | Itv (a, b) when a = n && b = n -> Bot
  | Itv (a, b) when a = n -> Itv (Int64.succ a, b)
  | Itv (a, b) when b = n -> Itv (a, Int64.pred b)
  | _ -> iv

let const_int_value = function
  | Cint (_, v) -> Some v
  | Cbool b -> Some (if b then 1L else 0L)
  | _ -> None

(* The fact established by executing the edge src -> dst, valid for
   values computed before src's terminator. *)
let edge_fact (src : block) (dst : block) : fact option =
  match terminator src with
  | Some { iop = Br; operands = [| cond; Vblock tb; Vblock fb |]; _ }
    when tb != fb -> (
    match cond with
    | Vinstr ci when is_comparison ci.iop ->
      if dst == tb then Some (Fcmp (ci, true))
      else if dst == fb then Some (Fcmp (ci, false))
      else None
    | _ -> None)
  | Some ({ iop = Switch; _ } as sw) -> (
    let deflt = as_block sw.operands.(1) in
    if dst == deflt then None
    else
      match List.filter (fun (_, b) -> b == dst) (switch_cases sw) with
      | [ (c, _) ] -> (
        match const_int_value c with
        | Some n -> Some (Feq (sw.operands.(0), n))
        | None -> None)
      | _ -> None)
  | _ -> None

(* ---------- analysis state ---------- *)

(* Storage is dense.  [analyze] numbers every instruction of the module
   into a slot once, then each function's return summary and arguments:
   the environment and the widening counters are arrays indexed by
   slot, and the worklist is a ring of slots.  Each instruction becomes
   a node once, holding only what a visit reads: its operands resolved
   to slots, each with the guard facts of its block that constrain it,
   already matched against the operand and with the compared value's
   kind resolved.  Evaluating an operand then walks only facts that
   apply to it. *)

(* An operand as the transfer functions read it. *)
type operand =
  | Slot of int  (** the current range of a tracked value *)
  | Fixed of interval  (** a constant, or a value that is not tracked *)
  | Guarded of operand * guard list  (** refined by guards, in chain order *)

(* A guard fact matched against the value it constrains. *)
and guard =
  | Gcmp of opcode * ikind * operand
      (** the value compares [op] against this operand of this kind *)
  | Geq of int64  (** unique switch case *)

type call = {
  callee : func;
  feeds : (int * ikind * operand option) array;
      (** formal slot, its kind and the actual, for each tracked formal
          of a callee whose argument summaries are tracked *)
  result : operand option;  (** the return summary of a defined callee *)
}

(* How a tracked instruction computes its range. *)
type eval =
  | Full  (** loads, allocations, addresses: the kind's full range *)
  | Phi_of of operand array  (** the reachable incoming edges *)
  | Cast_of of operand
  | Select_of of operand * operand * operand
  | Arith of opcode * operand * operand
  | Compare of opcode * ikind option * operand * operand
      (** the kind is operand 0's *)
  | Result of call option  (** a call: the direct callee's summary *)

type node =
  | Inert  (** a visit changes nothing: stores, branches, untracked values *)
  | Value of {
      kind : ikind;
      threshold : int;  (** widening threshold *)
      eval : eval;
    }
  | Return of operand  (** [ret v] in a function with a tracked return *)
  | Feeds of call  (** a direct call with an untracked result *)

type finfo = {
  func : func;
  fslot : int;  (** return summary *)
  ret_kind : ikind option;
  rpo : int array;  (** instruction slots in reverse postorder *)
  limit : int;  (** worklist budget *)
  mutable analyzed : bool;
}

type t = {
  table : Ltype.table;
  slots : Ids.Numbering.t;  (** iid / aid / fid -> slot *)
  env : interval array;
  bumps : int array;
  by_slot : instr array;  (** instruction slot -> *)
  nodes : node array;  (** one per instruction slot *)
  deps : int list array;
      (** instruction slot -> the instructions with an operand that a
          guard on it constrains, in reverse program order *)
  chains : fact list Ids.t;  (** block id -> facts on entry *)
  finfos : finfo Ids.t;  (** function id -> *)
  queue : int array;  (** worklist ring over instruction slots *)
  queued : Bytes.t;
  mutable qhead : int;
  mutable qlen : int;
}

let kind_of_value (t : t) (v : value) : ikind option =
  match type_of t.table v with
  | ty -> kind_of_ty t.table ty
  | exception (Ltype.Unresolved _ | Invalid_argument _) -> None

let tracked_source (t : t) id ty =
  match kind_of_ty t.table ty with
  | None -> Fixed top
  | Some _ -> (
    match Ids.Numbering.find t.slots id with -1 -> Fixed Bot | s -> Slot s)

(* Base range, before any guard refinement.  [Bot] on a tracked value
   means no execution reaches its definition. *)
let source (t : t) (v : value) : operand =
  match v with
  | Vconst c -> Fixed (const_interval t.table c)
  | Vinstr i -> tracked_source t i.iid i.ity
  | Varg a -> tracked_source t a.aid a.aty
  | Vglobal _ | Vfunc _ | Vblock _ -> Fixed top

let guard_against t op other =
  match kind_of_value t other with
  | None -> None
  | Some k -> Some (Gcmp (op, k, source t other))

(* The guard a fact puts on [v], if any. *)
let guard_on (t : t) (v : value) : fact -> guard option = function
  | Feq (x, n) -> if value_equal x v then Some (Geq n) else None
  | Fcmp (ci, taken) ->
    if Array.length ci.operands <> 2 then None
    else
      let op = if taken then ci.iop else negate_cmp ci.iop in
      if value_equal ci.operands.(0) v then guard_against t op ci.operands.(1)
      else if value_equal ci.operands.(1) v then
        guard_against t (swap_cmp op) ci.operands.(0)
      else None

(* [v] in a block whose facts on entry are [chain]. *)
let operand (t : t) (chain : fact list) (v : value) : operand =
  match chain with
  | [] -> source t v
  | _ -> (
    match List.filter_map (guard_on t v) chain with
    | [] -> source t v
    | guards -> Guarded (source t v, guards))

let rec ev (t : t) (o : operand) : interval =
  match o with
  | Slot s -> t.env.(s)
  | Fixed iv -> iv
  | Guarded (o, guards) -> refine t guards (ev t o)

and refine t guards iv =
  match guards with
  | [] -> iv
  | Geq n :: rest -> refine t rest (meet iv (singleton n))
  | Gcmp (op, k, other) :: rest ->
    let oiv = ev t other in
    let iv =
      if not (order_ok k iv && order_ok k oiv) then iv
      else
        match (op, oiv) with
        | SetNE, Itv (a, b) when a = b -> shave_endpoint iv a
        | _ -> meet iv (constrain_by op oiv)
    in
    refine t rest iv

let chain_of t (b : block) =
  match Ids.find t.chains b.bid with c -> c | exception Not_found -> []

(* ---------- per-function setup ---------- *)

let direct_callee (i : instr) : func option =
  match call_callee i with
  | Vfunc f -> Some f
  | Vconst (Cfunc f) -> Some f
  | Vconst (Ccast (_, Cfunc f)) -> Some f
  | _ -> None

let arg_summaries_tracked (f : func) =
  f.flinkage = Internal && not (Callgraph.address_taken f)

let widen_default = 8
let widen_loop = 3

let slot t id = Ids.Numbering.find t.slots id

let direct_call (t : t) ~tracked (i : instr) here : call option =
  match direct_callee i with
  | None -> None
  | Some callee ->
    let defined = (not (is_declaration callee)) && Ids.Numbering.find t.slots callee.fid >= 0 in
    let feeds =
      if not (defined && tracked callee) then [||]
      else
        let first = if i.iop = Call then 1 else 3 in
        List.mapi
          (fun k fa ->
            Option.map
              (fun fk ->
                let j = first + k in
                ( slot t fa.aid,
                  fk,
                  if j < Array.length i.operands then Some (operand t here i.operands.(j))
                  else None ))
              (kind_of_ty t.table fa.aty))
          callee.fargs
        |> List.filter_map Fun.id |> Array.of_list
    in
    Some { callee; feeds; result = (if defined then Some (Slot (slot t callee.fid)) else None) }

(* The node of one instruction of [f]: what a visit reads, with operands
   resolved against the guard chain of the instruction's block and phi
   inputs against their incoming edge. *)
let build_node (t : t) dom headers ~tracked (f : func) (i : instr) : node =
  let here = match i.iparent with Some b -> chain_of t b | None -> [] in
  let ops = i.operands in
  match i.iop with
  | Ret ->
    if Array.length ops = 1 && kind_of_ty t.table f.freturn <> None then
      Return (operand t here ops.(0))
    else Inert
  | Store | Free | Br | Switch | Unwind -> Inert
  | op -> (
    match kind_of_ty t.table i.ity with
    | None -> (
      match op with
      | Call | Invoke -> (
        match direct_call t ~tracked i here with Some c -> Feeds c | None -> Inert)
      | _ -> Inert)
    | Some kind ->
      let eval =
        match op with
        | Call | Invoke -> Result (direct_call t ~tracked i here)
        | Phi -> (
          match i.iparent with
          | None -> Phi_of [||]
          | Some b ->
            Phi_of
              (List.filter_map
                 (fun (v, pred) ->
                   if not (Dominance.is_reachable dom pred) then None
                   else
                     let chain =
                       match edge_fact pred b with
                       | Some fa -> fa :: chain_of t pred
                       | None -> chain_of t pred
                     in
                     Some (operand t chain v))
                 (phi_incoming i)
              |> Array.of_list))
        | Cast -> Cast_of (operand t here ops.(0))
        | Select ->
          Select_of (operand t here ops.(0), operand t here ops.(1), operand t here ops.(2))
        | op when is_binary op -> Arith (op, operand t here ops.(0), operand t here ops.(1))
        | op when is_comparison op ->
          Compare
            (op, kind_of_value t ops.(0), operand t here ops.(0), operand t here ops.(1))
        | _ -> Full
      in
      let threshold =
        match i.iparent with
        | Some b when op = Phi && List.memq b headers -> widen_loop
        | _ -> widen_default
      in
      Value { kind; threshold; eval })

(* Apply [f] to each operand a node reads. *)
let iter_operands (f : operand -> unit) (n : node) : unit =
  let call c = Array.iter (fun (_, _, a) -> Option.iter f a) c.feeds in
  match n with
  | Inert -> ()
  | Return o -> f o
  | Feeds c -> call c
  | Value { eval; _ } -> (
    match eval with
    | Full | Result None -> ()
    | Phi_of os -> Array.iter f os
    | Cast_of a -> f a
    | Select_of (a, b, c) ->
      f a;
      f b;
      f c
    | Arith (_, a, b) | Compare (_, _, a, b) ->
      f a;
      f b
    | Result (Some c) -> call c)

(* Dependents are kept in descending slot order, which is reverse
   program order. *)
let rec insert_dependent s = function
  | x :: rest when x > s -> x :: insert_dependent s rest
  | x :: _ as l when x = s -> l
  | l -> s :: l

let rec add_guard_deps (t : t) (s : int) = function
  | [] -> ()
  | Gcmp (_, _, Slot d) :: rest when d < Array.length t.deps ->
    t.deps.(d) <- insert_dependent s t.deps.(d);
    add_guard_deps t s rest
  | _ :: rest -> add_guard_deps t s rest

(* Record that node [s] reads [o]: every instruction slot a guard on
   [o] compares against gets [s] among its dependents. *)
let add_deps (t : t) (s : int) (o : operand) : unit =
  match o with Guarded (_, guards) -> add_guard_deps t s guards | Slot _ | Fixed _ -> ()

(* Guard chains down the dominator tree, then the nodes of [f]. *)
let build_function (t : t) ~tracked (f : func) : finfo =
  let dom = Dominance.compute f in
  let headers = List.map snd (Loops.back_edges dom f) in
  (if f.fblocks <> [] then
     let entry = entry_block f in
     let rec walk (b : block) (inherited : fact list) =
       let facts =
         if b == entry then inherited
         else
           match predecessors b with
           | [ p ] -> (
             match edge_fact p b with
             | Some fa -> fa :: inherited
             | None -> inherited)
           | _ -> inherited
       in
       Ids.replace t.chains b.bid facts;
       List.iter (fun c -> walk c facts) (Dominance.children dom b)
     in
     walk entry []);
  (* nodes in reverse postorder, which is also the worklist's initial
     order (less the [Inert] ones), then those of unreachable blocks *)
  let count = instr_count f in
  let rpo = Array.make count 0 and n = ref 0 in
  let build (i : instr) =
    let s = slot t i.iid in
    let node = build_node t dom headers ~tracked f i in
    t.nodes.(s) <- node;
    if node != Inert then iter_operands (add_deps t s) node;
    s
  in
  let cfg = Dominance.cfg dom in
  for k = 0 to Cfg.size cfg - 1 do
    List.iter
      (fun i ->
        let s = build i in
        if t.nodes.(s) != Inert then begin
          rpo.(!n) <- s;
          incr n
        end)
      (Cfg.block cfg k).instrs
  done;
  List.iter (fun b -> List.iter (fun i -> ignore (build i)) b.instrs) (Cfg.unreachable cfg);
  {
    func = f;
    fslot = slot t f.fid;
    ret_kind = kind_of_ty t.table f.freturn;
    rpo = Array.sub rpo 0 !n;
    limit = 2000 * (count + 8);
    analyzed = false;
  }

(* ---------- transfer ---------- *)

let transfer (t : t) (kind : ikind) (e : eval) : interval =
  match e with
  | Full | Result _ -> full_of kind
  | Phi_of incoming ->
    let acc = ref Bot in
    for k = 0 to Array.length incoming - 1 do
      acc := join !acc (ev t incoming.(k))
    done;
    !acc
  | Cast_of a -> cast_to kind (ev t a)
  | Select_of (c, a, b) -> (
    match ev t c with
    | Bot -> Bot
    | Itv (1L, 1L) -> ev t a
    | Itv (0L, 0L) -> ev t b
    | _ -> join (ev t a) (ev t b))
  | Arith (op, a, b) -> ibinop kind op (ev t a) (ev t b)
  | Compare (op, Some k, a, b) -> cmp_op k op (ev t a) (ev t b)
  | Compare (_, None, _, _) -> Itv (0L, 1L)

(* ---------- fixpoint ---------- *)

(* Queue a slot unless it is queued already.  Visiting an [Inert] node
   does nothing, so none is ever queued. *)
let push (t : t) (s : int) : unit =
  if Bytes.unsafe_get t.queued s = '\000' && t.nodes.(s) != Inert then begin
    Bytes.unsafe_set t.queued s '\001';
    let cap = Array.length t.queue in
    let at = t.qhead + t.qlen in
    t.queue.(if at >= cap then at - cap else at) <- s;
    t.qlen <- t.qlen + 1
  end

let pop (t : t) : int =
  let s = t.queue.(t.qhead) in
  t.qhead <- (if t.qhead + 1 = Array.length t.queue then 0 else t.qhead + 1);
  t.qlen <- t.qlen - 1;
  Bytes.unsafe_set t.queued s '\000';
  s

let rec push_all t = function
  | [] -> ()
  | s :: rest ->
    push t s;
    push_all t rest

(* Requeue the users of a value that grew, in use-list order. *)
let rec push_users t = function
  | [] -> ()
  | u :: rest ->
    (match Ids.Numbering.find t.slots u.user.iid with -1 -> () | s -> push t s);
    push_users t rest

let raise_value (t : t) ~threshold (k : ikind) (s : int) (nv : interval) : bool =
  let old = t.env.(s) in
  let merged = clamp k (join old nv) in
  if equal merged old then false
  else begin
    let n = t.bumps.(s) + 1 in
    t.bumps.(s) <- n;
    t.env.(s) <-
      (if n <= threshold then merged
       else
         match (old, merged, full_of k) with
         | Itv (oa, ob), Itv (na, nb), Itv (flo, fhi) ->
           Itv ((if na < oa then flo else na), if nb > ob then fhi else nb)
         | _ -> merged);
    true
  end

(* Feed a direct call's actuals into the callee's argument summaries. *)
let feed (t : t) ~enqueue (c : call) : unit =
  Array.iter
    (fun (formal, k, actual) ->
      let v = match actual with Some o -> ev t o | None -> full_of k in
      if raise_value t ~threshold:5 k formal v then enqueue c.callee)
    c.feeds

let set_full (t : t) (id : int) (ty : Ltype.t) : unit =
  match kind_of_ty t.table ty with
  | Some k when Ids.Numbering.find t.slots id >= 0 -> t.env.(Ids.Numbering.find t.slots id) <- full_of k
  | _ -> ()

(* Safe fallback when an iteration budget trips: force every summary
   the function influences to full, which is trivially sound. *)
let poison_function (t : t) (cg : Callgraph.t) ~enqueue (f : func) : unit =
  (match kind_of_ty t.table f.freturn with
  | Some _ ->
    set_full t f.fid f.freturn;
    List.iter enqueue (Callgraph.node cg f).Callgraph.callers
  | None -> ());
  iter_instrs
    (fun i ->
      set_full t i.iid i.ity;
      match i.iop with
      | Call | Invoke -> (
        match direct_callee i with
        | Some callee when not (is_declaration callee) ->
          List.iter (fun a -> set_full t a.aid a.aty) callee.fargs;
          enqueue callee
        | _ -> ())
      | _ -> ())
    f

let analyze_function (t : t) (cg : Callgraph.t) ~enqueue (fi : finfo) : unit =
  fi.analyzed <- true;
  Array.iter (push t) fi.rpo;
  let guard = ref 0 in
  while t.qlen > 0 && !guard < fi.limit do
    incr guard;
    let s = pop t in
    match t.nodes.(s) with
    | Inert -> ()
    | Return o -> (
      match fi.ret_kind with
      | Some k ->
        if raise_value t ~threshold:5 k fi.fslot (ev t o) then
          List.iter enqueue (Callgraph.node cg fi.func).Callgraph.callers
      | None -> ())
    | Feeds c -> feed t ~enqueue c
    | Value v ->
      let nv =
        match v.eval with
        | Result (Some c) -> (
          feed t ~enqueue c;
          match c.result with Some o -> clamp v.kind (ev t o) | None -> full_of v.kind)
        | e -> transfer t v.kind e
      in
      if raise_value t ~threshold:v.threshold v.kind s nv then begin
        push_users t t.by_slot.(s).iuses;
        push_all t t.deps.(s)
      end
  done;
  while t.qlen > 0 do
    ignore (pop t)
  done;
  if !guard >= fi.limit then poison_function t cg ~enqueue fi.func

let poison_all (t : t) (defined : func list) : unit =
  List.iter
    (fun f ->
      set_full t f.fid f.freturn;
      List.iter (fun a -> set_full t a.aid a.aty) f.fargs;
      iter_instrs (fun i -> set_full t i.iid i.ity) f)
    defined

(* A descending sweep: meet every value with its transfer, in order. *)
let narrow (t : t) (fi : finfo) : unit =
  Array.iter
    (fun s ->
      match t.nodes.(s) with
      | Value { eval = Result _; _ } | Inert | Return _ | Feeds _ -> ()
      | Value { kind; eval; _ } ->
        t.env.(s) <- clamp kind (meet t.env.(s) (transfer t kind eval)))
    fi.rpo

let analyze (m : modul) : t =
  let cg = Callgraph.compute m in
  let defined = List.filter (fun f -> not (is_declaration f)) m.mfuncs in
  let blocks = ref 0 and values = ref 0 in
  List.iter
    (fun f ->
      values := !values + 1 + List.length f.fargs;
      List.iter
        (fun b ->
          incr blocks;
          values := !values + List.length b.instrs)
        f.fblocks)
    m.mfuncs;
  let slots = Ids.Numbering.create !values in
  let instrs = ref [] in
  List.iter (iter_instrs (fun i -> if Ids.Numbering.add slots i.iid then instrs := i :: !instrs)) m.mfuncs;
  let instrs = Array.of_list (List.rev !instrs) in
  List.iter
    (fun f ->
      ignore (Ids.Numbering.add slots f.fid);
      List.iter (fun a -> ignore (Ids.Numbering.add slots a.aid)) f.fargs)
    m.mfuncs;
  let count = Ids.Numbering.count slots in
  let n = Array.length instrs in
  let t =
    {
      table = m.mtypes;
      slots;
      env = Array.make count Bot;
      bumps = Array.make count 0;
      by_slot = instrs;
      nodes = Array.make n Inert;
      deps = Array.make n [];
      chains = Ids.create !blocks;
      finfos = Ids.create 64;
      queue = Array.make (max 1 n) 0;
      queued = Bytes.make n '\000';
      qhead = 0;
      qlen = 0;
    }
  in
  let tracked = Ids.create 64 in
  List.iter (fun f -> if arg_summaries_tracked f then Ids.replace tracked f.fid ()) defined;
  let tracked f = Ids.mem tracked f.fid in
  List.iter (fun f -> Ids.replace t.finfos f.fid (build_function t ~tracked f)) defined;
  (* Arguments we cannot see every call site of start at full.  An
     internal function with no callers at all is also seeded full: its
     code never executes, so any assumption is sound, and lint wants
     meaningful ranges there rather than an everything-is-Bot verdict. *)
  List.iter
    (fun f ->
      if (not (tracked f)) || (Callgraph.node cg f).Callgraph.callers = [] then
        List.iter (fun a -> set_full t a.aid a.aty) f.fargs)
    defined;
  let pending = Queue.create () in
  let queued = Ids.create 64 in
  let enqueue f =
    if (not (is_declaration f)) && not (Ids.mem queued f.fid) then begin
      Ids.replace queued f.fid ();
      Queue.add f pending
    end
  in
  List.iter (List.iter enqueue) (Callgraph.sccs cg);
  let cap = 40 * List.length defined + 64 in
  let rounds = ref 0 in
  while (not (Queue.is_empty pending)) && !rounds < cap do
    incr rounds;
    let f = Queue.pop pending in
    Ids.remove queued f.fid;
    match Ids.find_opt t.finfos f.fid with
    | Some fi -> analyze_function t cg ~enqueue fi
    | None -> ()
  done;
  if not (Queue.is_empty pending) then poison_all t defined
  else
    (* two descending sweeps recover precision lost to widening *)
    for _ = 1 to 2 do
      List.iter
        (fun f ->
          match Ids.find_opt t.finfos f.fid with
          | Some fi when fi.analyzed -> narrow t fi
          | _ -> ())
        defined
    done;
  t

(* ---------- queries ---------- *)

let range_of (t : t) (v : value) : interval = ev t (source t v)

let range_at (t : t) (b : block) (v : value) : interval =
  match b.bparent with
  | Some f -> (
    match Ids.find_opt t.finfos f.fid with
    | Some fi when fi.analyzed -> ev t (operand t (chain_of t b) v)
    | _ -> range_of t v)
  | None -> range_of t v

let return_range (t : t) (f : func) : interval =
  match (kind_of_ty t.table f.freturn, Ids.Numbering.find t.slots f.fid) with
  | Some _, -1 -> Bot
  | Some _, s -> t.env.(s)
  | None, _ -> top

let binop k op x y = ibinop (Kint k) op x y
