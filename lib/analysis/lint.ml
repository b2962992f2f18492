(* llvm-lint: a dataflow-based static safety analyzer over the IR.

   The paper's evaluation leans on static safety reasoning — Table 1
   classifies loads/stores as provably type-safe via DSA, and SAFECode
   (section 4.1.2) statically discharges bounds checks.  This module
   extends that story from *type* safety to *memory* safety: a suite of
   checkers built on the generic {!Dataflow} engine that find semantic
   bugs in IR and report them as structured diagnostics with stable
   codes:

     L001  uninitialized-load   load from an alloca never stored on
                                some path (forward must-init analysis)
     L002  null-dereference     load/store/gep/free/call through a value
                                proven null by SCCP-style reasoning
     L003  use-after-free       access through a DSA node freed on
                                every path reaching the access
     L004  double-free          free of a DSA node already freed on
                                every path (same analysis as L003)
     L005  memory-leak          malloc never freed anywhere in the
                                module whose DSA node cannot escape
     L006  dead-store           store to a local overwritten or never
                                read (backward liveness with Mod/Ref
                                deciding whether calls can observe it)
     L007  unreachable-block    block with no path from the entry

   The checkers are interprocedurally aware where it is cheap: L001 and
   L006 consult {!Modref} to decide whether a callee can initialize or
   observe a stack slot, and L003-L005 share one module-wide {!Dsa}
   points-to graph so aliased pointers agree about the free state.

   L001's facts are exported ({!undef_loads}): the bounds check
   eliminator drops checks on indices loaded from never-initialized
   slots. *)

open Llvm_ir
open Ir

(* -- Diagnostics --------------------------------------------------------- *)

type severity = Info | Warning | Error

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2
let severity_name = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_of_string = function
  | "info" -> Some Info
  | "warning" -> Some Warning
  | "error" -> Some Error
  | _ -> None

type diag = {
  code : string;
  severity : severity;
  func : string;
  block : string;
  block_index : int;
  instr_index : int;  (* -1 for block-level diagnostics *)
  message : string;
}

let all_codes =
  [ ("L001", "uninitialized load");
    ("L002", "null dereference");
    ("L003", "use after free");
    ("L004", "double free");
    ("L005", "memory leak");
    ("L006", "dead store");
    ("L007", "unreachable block");
    ("L008", "signed overflow");
    ("L009", "division by zero / bad shift");
    ("L010", "out-of-bounds gep index") ]

let pp_diag fmt (d : diag) =
  Fmt.pf fmt "%s/%s: [%s] %s: %s" d.func d.block d.code
    (severity_name d.severity) d.message

(* One-line JSON form for machine consumers (editors, CI annotators). *)
let diag_to_json (d : diag) : string =
  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  in
  Printf.sprintf
    {|{"code":"%s","severity":"%s","func":"%s","block":"%s","message":"%s"}|}
    (escape d.code)
    (severity_name d.severity)
    (escape d.func) (escape d.block) (escape d.message)

let filter_severity (min : severity) (ds : diag list) : diag list =
  List.filter (fun d -> severity_rank d.severity >= severity_rank min) ds

let count_by_code (ds : diag list) : (string * int) list =
  List.map
    (fun (code, _) ->
      (code, List.length (List.filter (fun d -> d.code = code) ds)))
    all_codes

let position_of equal x xs =
  let rec go n = function
    | [] -> -1
    | y :: tl -> if equal x y then n else go (n + 1) tl
  in
  go 0 xs

let diag ?instr code severity (f : func) (b : block) fmt =
  let block_index = position_of ( == ) b f.fblocks in
  let instr_index =
    match instr with Some i -> position_of ( == ) i b.instrs | None -> -1
  in
  Fmt.kstr
    (fun message ->
      { code; severity; func = f.fname; block = b.bname; block_index;
        instr_index; message })
    fmt

(* Diagnostics sort by source position so output is stable no matter
   which order the checkers and their hashtables produce them in. *)
let compare_diag (a : diag) (b : diag) : int =
  let cmp = compare a.func b.func in
  if cmp <> 0 then cmp
  else
    let cmp = compare a.block_index b.block_index in
    if cmp <> 0 then cmp
    else
      let cmp = compare a.instr_index b.instr_index in
      if cmp <> 0 then cmp
      else
        let cmp = compare a.code b.code in
        if cmp <> 0 then cmp else compare a.message b.message

(* Human name for an instruction's result in messages. *)
let describe (i : instr) : string =
  if i.iname = "" then opcode_name i.iop else "%" ^ i.iname

let describe_value = function
  | Vinstr i -> describe i
  | Varg a -> "%" ^ a.aname
  | Vglobal g -> "@" ^ g.gname
  | Vfunc f -> "@" ^ f.fname
  | Vconst _ -> "constant"
  | Vblock b -> "label " ^ b.bname

(* -- The shared value abstraction (SCCP-style, def-chain driven) --------- *)

(* What is statically known about a first-class value: a concrete
   integer, a proven-null or proven-non-null pointer, undef, or nothing.
   [Vbot] is the optimistic element used while a phi cycle is being
   evaluated; it never escapes {!eval}. *)
type absval = Vbot | Vint of int64 | Vnull | Vnonnull | Vundef | Vtop

let join_abs a b =
  match (a, b) with
  | Vbot, x | x, Vbot -> x
  | x, y when x = y -> x
  | _ -> Vtop

let rec const_abs (c : const) : absval =
  match c with
  | Cnull _ -> Vnull
  | Cint (Ltype.Integer k, v) -> Vint (normalize_int k v)
  | Cint (_, v) -> Vint v
  | Cbool b -> Vint (if b then 1L else 0L)
  | Cundef _ -> Vundef
  | Czero t -> (
    match t with
    | Ltype.Pointer _ -> Vnull
    | Ltype.Bool | Ltype.Integer _ -> Vint 0L
    | _ -> Vtop)
  | Cgvar _ | Cfunc _ -> Vnonnull
  | Ccast (t, c) -> (
    (* fold through the cast at the *target* width: truncations to a
       narrow kind must renormalize, not keep the 64-bit pattern *)
    match (const_abs c, t) with
    | Vint 0L, Ltype.Pointer _ -> Vnull
    | Vint _, Ltype.Pointer _ -> Vnonnull
    | Vint v, Ltype.Integer k -> Vint (normalize_int k v)
    | Vint v, Ltype.Bool -> Vint (if v <> 0L then 1L else 0L)
    | Vnull, Ltype.Integer _ -> Vint 0L
    | Vnull, Ltype.Bool -> Vint 0L
    | Vint _, (Ltype.Named _ | Ltype.Opaque _) -> Vtop
    | x, _ -> x)
  | Carray _ | Cstruct _ | Cfloat _ -> Vtop

(* An evaluator memoizes per-instruction results, so repeated queries
   over one function stay linear in the def-use graph. *)
type evaluator = { etable : Ltype.table; memo : (int, absval) Hashtbl.t }

let evaluator (table : Ltype.table) : evaluator =
  { etable = table; memo = Hashtbl.create 64 }

let resolve_opt table ty =
  try Some (Ltype.resolve table ty) with Ltype.Unresolved _ -> None

let rec eval (e : evaluator) (v : value) : absval =
  match v with
  | Vconst c -> const_abs c
  | Vglobal _ | Vfunc _ -> Vnonnull
  | Varg _ | Vblock _ -> Vtop
  | Vinstr i -> (
    match Hashtbl.find_opt e.memo i.iid with
    | Some a -> a
    | None ->
      (* optimistic while the cycle is being walked: phis over
         themselves contribute nothing to the join *)
      Hashtbl.replace e.memo i.iid Vbot;
      let a = eval_instr e i in
      let a = if a = Vbot then Vtop else a in
      Hashtbl.replace e.memo i.iid a;
      a)

and eval_instr (e : evaluator) (i : instr) : absval =
  match i.iop with
  | Malloc | Alloca -> Vnonnull (* allocation results have provenance *)
  | Cast -> (
    let a = eval e i.operands.(0) in
    match resolve_opt e.etable i.ity with
    | Some (Ltype.Pointer _) -> (
      match a with Vint 0L -> Vnull | Vint _ -> Vnonnull | x -> x)
    | Some (Ltype.Integer k) -> (
      match a with
      | Vint v -> Vint (normalize_int k v)
      | Vnull -> Vint 0L
      | _ -> Vtop)
    | Some Ltype.Bool -> (
      match a with
      | Vint v -> Vint (if v <> 0L then 1L else 0L)
      | Vnull -> Vint 0L
      | _ -> Vtop)
    | _ -> Vtop)
  | Gep -> (
    (* gep preserves provenance: indexing off a null pointer is still a
       null dereference when the result is accessed *)
    match eval e i.operands.(0) with
    | (Vnull | Vnonnull | Vundef) as a -> a
    | _ -> Vtop)
  | Phi ->
    List.fold_left
      (fun acc (v, _) -> join_abs acc (eval e v))
      Vbot (phi_incoming i)
  | Select -> (
    match eval e i.operands.(0) with
    | Vint 0L -> eval e i.operands.(2)
    | Vint _ -> eval e i.operands.(1)
    | _ -> join_abs (eval e i.operands.(1)) (eval e i.operands.(2)))
  | op when is_binary op -> (
    match
      (resolve_opt e.etable i.ity, eval e i.operands.(0), eval e i.operands.(1))
    with
    | Some (Ltype.Integer k), Vint a, Vint b -> (
      match Fold.int_binop k op a b with Some r -> Vint r | None -> Vtop)
    | _ -> Vtop)
  | op when is_comparison op -> (
    let kind_of v =
      match resolve_opt e.etable (Ir.type_of e.etable v) with
      | Some (Ltype.Integer k) -> Some k
      | Some Ltype.Bool -> Some Ltype.Ubyte
      | _ -> None
    in
    match (eval e i.operands.(0), eval e i.operands.(1)) with
    | Vint a, Vint b -> (
      match kind_of i.operands.(0) with
      | Some k -> Vint (if Fold.int_cmp k op a b then 1L else 0L)
      | None -> Vtop)
    | Vnull, Vnonnull | Vnonnull, Vnull -> (
      match op with SetEQ -> Vint 0L | SetNE -> Vint 1L | _ -> Vtop)
    | Vnull, Vnull -> (
      match op with
      | SetEQ | SetLE | SetGE -> Vint 1L
      | SetNE | SetLT | SetGT -> Vint 0L
      | _ -> Vtop)
    | _ -> Vtop)
  | _ -> Vtop

(* One-shot conveniences for clients outside the linter. *)
let eval_int (table : Ltype.table) (v : value) : int64 option =
  match eval (evaluator table) v with Vint n -> Some n | _ -> None

let proves_null (table : Ltype.table) (v : value) : bool =
  eval (evaluator table) v = Vnull

(* -- L001: uninitialized loads ------------------------------------------- *)

module Imap = Map.Make (Int)
module ISet = Set.Make (Int)

type init_state = Uninit | Init | Maybe

let join_state a b = if a = b then a else Maybe

module Init_lattice = struct
  (* map: tracked alloca iid -> initialization state; a missing key
     means the slot has not been stored to (Uninit) *)
  type fact = IBot | IFacts of init_state Imap.t

  let bottom = IBot

  let equal a b =
    match (a, b) with
    | IBot, IBot -> true
    | IFacts a, IFacts b -> Imap.equal ( = ) a b
    | _ -> false

  let join a b =
    match (a, b) with
    | IBot, x | x, IBot -> x
    | IFacts a, IFacts b ->
      IFacts
        (Imap.merge
           (fun _ x y ->
             match (x, y) with
             | Some x, Some y -> Some (join_state x y)
             | Some x, None | None, Some x -> Some (join_state x Uninit)
             | None, None -> None)
           a b)
end

module Init_flow = Dataflow.Make (Init_lattice)

(* Allocas whose address never leaks: every use is a direct load, the
   pointer side of a direct store, or a call argument.  Anything else
   (gep, cast, phi, stored as a value, returned) makes the slot's state
   untrackable and the checker stays silent about it. *)
let directly_used_allocas (f : func) : (int, instr) Hashtbl.t =
  let t = Hashtbl.create 16 in
  iter_instrs
    (fun i ->
      if i.iop = Alloca then begin
        let direct u =
          match (u.user.iop, u.index) with
          | Load, 0 -> true
          | Store, 1 -> true
          | Call, k -> k >= 1
          | Invoke, k -> k >= 3
          | _ -> false
        in
        if List.for_all direct i.iuses then Hashtbl.replace t i.iid i
      end)
    f;
  t

let tracked_alloca tracked (v : value) : instr option =
  match v with
  | Vinstr a when Hashtbl.mem tracked a.iid -> Some a
  | _ -> None

(* A call can initialize a slot passed to it only if the callee may
   write memory — the interprocedural refinement via Mod/Ref. *)
let callee_may_write (mr : Modref.t) (i : instr) : bool =
  match call_callee i with
  | Vfunc callee | Vconst (Cfunc callee) -> Modref.may_write mr callee
  | _ -> true

let init_transfer mr tracked (fact : init_state Imap.t) (i : instr) :
    init_state Imap.t =
  match i.iop with
  | Store -> (
    match tracked_alloca tracked i.operands.(1) with
    | Some a -> Imap.add a.iid Init fact
    | None -> fact)
  | Call | Invoke ->
    if not (callee_may_write mr i) then fact
    else
      List.fold_left
        (fun fact arg ->
          match tracked_alloca tracked arg with
          | Some a -> Imap.add a.iid Init fact
          | None -> fact)
        fact (call_args i)
  | _ -> fact

(* Returns the diagnostics plus the iids of loads proven to read
   never-initialized memory (consumed by the bounds check eliminator:
   a check on an undef index guards undefined behaviour and may go). *)
let check_uninit (mr : Modref.t) (cfg : Cfg.t) (f : func) : diag list * ISet.t =
  let tracked = directly_used_allocas f in
  if Hashtbl.length tracked = 0 then ([], ISet.empty)
  else begin
    let transfer b fact =
      match fact with
      | Init_lattice.IBot -> Init_lattice.IBot
      | Init_lattice.IFacts m ->
        Init_lattice.IFacts
          (Dataflow.fold_block_forward (init_transfer mr tracked) b m)
    in
    let res =
      Init_flow.run ~direction:Dataflow.Forward
        ~boundary:(Init_lattice.IFacts Imap.empty) ~transfer cfg
    in
    let diags = ref [] and undef = ref ISet.empty in
    List.iter
      (fun b ->
        match Init_flow.before res b with
        | Init_lattice.IBot -> () (* unreachable: L007's business *)
        | Init_lattice.IFacts entry_fact ->
          ignore
            (Dataflow.fold_block_forward
               (fun fact i ->
                 (match i.iop with
                 | Load -> (
                   match tracked_alloca tracked i.operands.(0) with
                   | Some a -> (
                     match
                       Option.value ~default:Uninit (Imap.find_opt a.iid fact)
                     with
                     | Uninit ->
                       undef := ISet.add i.iid !undef;
                       diags :=
                         diag ~instr:i "L001" Error f b
                           "load of %s before any store (uninitialized)"
                           (describe a)
                         :: !diags
                     | Maybe ->
                       diags :=
                         diag ~instr:i "L001" Warning f b
                           "%s may be read before initialization on some path"
                           (describe a)
                         :: !diags
                     | Init -> ())
                   | None -> ())
                 | _ -> ());
                 init_transfer mr tracked fact i)
               b entry_fact))
      f.fblocks;
    (List.rev !diags, !undef)
  end

(* -- L002: null dereference ---------------------------------------------- *)

let check_null (table : Ltype.table) (cfg : Cfg.t) (f : func) : diag list =
  let ev = evaluator table in
  let diags = ref [] in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          let deref =
            match i.iop with
            | Load | Gep -> Some (i.operands.(0), "dereferences")
            | Store -> Some (i.operands.(1), "stores through")
            | Free -> Some (i.operands.(0), "frees")
            | Call | Invoke -> Some (call_callee i, "calls through")
            | _ -> None
          in
          match deref with
          | Some (ptr, verb) -> (
            match eval ev ptr with
            | Vnull ->
              diags :=
                diag ~instr:i "L002" Error f b "%s %s a pointer that is provably null"
                  (describe i) verb
                :: !diags
            | Vundef ->
              diags :=
                diag ~instr:i "L002" Warning f b "%s %s an undef pointer" (describe i)
                  verb
                :: !diags
            | _ -> ())
          | None -> ())
        b.instrs)
    (List.filter (fun b -> Cfg.index cfg b >= 0) f.fblocks);
  List.rev !diags

(* -- L003/L004: use-after-free and double-free --------------------------- *)

(* Fact: the set of DSA node roots freed on *every* path reaching this
   point (a must analysis — join is intersection — so the checkers only
   fire on definite bugs, not on "freed on one arm" merges). *)
module Freed_lattice = struct
  type fact = FBot | Freed of ISet.t

  let bottom = FBot

  let equal a b =
    match (a, b) with
    | FBot, FBot -> true
    | Freed a, Freed b -> ISet.equal a b
    | _ -> false

  let join a b =
    match (a, b) with
    | FBot, x | x, FBot -> x
    | Freed a, Freed b -> Freed (ISet.inter a b)
end

module Freed_flow = Dataflow.Make (Freed_lattice)

let node_of (dsa : Dsa.t) (v : value) : int option =
  match Dsa.cell_of_value dsa v with
  | Some c -> Some (Dsa.find c.Dsa.node).Dsa.nid
  | None -> None

let freed_transfer dsa (fact : ISet.t) (i : instr) : ISet.t =
  match i.iop with
  | Free -> (
    match node_of dsa i.operands.(0) with
    | Some n -> ISet.add n fact
    | None -> fact)
  | Malloc | Alloca -> (
    (* a fresh allocation revives its (flow-insensitively shared) node *)
    match node_of dsa (Vinstr i) with
    | Some n -> ISet.remove n fact
    | None -> fact)
  | _ -> fact

let check_free_state (dsa : Dsa.t) (cfg : Cfg.t) (f : func) : diag list =
  let transfer b fact =
    match fact with
    | Freed_lattice.FBot -> Freed_lattice.FBot
    | Freed_lattice.Freed s ->
      Freed_lattice.Freed (Dataflow.fold_block_forward (freed_transfer dsa) b s)
  in
  let res =
    Freed_flow.run ~direction:Dataflow.Forward
      ~boundary:(Freed_lattice.Freed ISet.empty) ~transfer cfg
  in
  let diags = ref [] in
  List.iter
    (fun b ->
      match Freed_flow.before res b with
      | Freed_lattice.FBot -> ()
      | Freed_lattice.Freed entry_fact ->
        ignore
          (Dataflow.fold_block_forward
             (fun fact i ->
               (match i.iop with
               | Free -> (
                 match node_of dsa i.operands.(0) with
                 | Some n when ISet.mem n fact ->
                   diags :=
                     diag ~instr:i "L004" Error f b "double free of %s"
                       (describe_value i.operands.(0))
                     :: !diags
                 | _ -> ())
               | Load | Store | Gep -> (
                 let ptr =
                   if i.iop = Store then i.operands.(1) else i.operands.(0)
                 in
                 match node_of dsa ptr with
                 | Some n when ISet.mem n fact ->
                   diags :=
                     diag ~instr:i "L003" Error f b "%s accesses %s after it was freed"
                       (describe i) (describe_value ptr)
                     :: !diags
                 | _ -> ())
               | _ -> ());
               freed_transfer dsa fact i)
             b entry_fact))
    f.fblocks;
  List.rev !diags

(* -- L005: memory leak --------------------------------------------------- *)

(* A malloc leaks when no free anywhere in the module can reach its DSA
   node, the node never escapes to external code, and the pointer value
   itself never escapes the function (stored into memory, returned, or
   passed to a callee that could stash or free it). *)
let value_escapes (v : value) : bool =
  let seen = Hashtbl.create 8 in
  let rec go v =
    List.exists
      (fun u ->
        let i = u.user in
        match i.iop with
        | Store -> u.index = 0 (* stored as the value, not the address *)
        | Ret -> true
        | Call | Invoke -> true
        | Phi | Select | Cast | Gep ->
          if Hashtbl.mem seen i.iid then false
          else begin
            Hashtbl.add seen i.iid ();
            go (Vinstr i)
          end
        | _ -> false)
      (uses_of v)
  in
  go v

let check_leaks (dsa : Dsa.t) (m : modul) : diag list =
  let freed = ref ISet.empty in
  List.iter
    (fun f ->
      iter_instrs
        (fun i ->
          if i.iop = Free then
            match node_of dsa i.operands.(0) with
            | Some n -> freed := ISet.add n !freed
            | None -> ())
        f)
    m.mfuncs;
  let diags = ref [] in
  List.iter
    (fun f ->
      iter_instrs
        (fun i ->
          if i.iop = Malloc then
            match Dsa.cell_of_value dsa (Vinstr i) with
            | None -> ()
            | Some c ->
              let root = Dsa.find c.Dsa.node in
              if
                (not (ISet.mem root.Dsa.nid !freed))
                && (not root.Dsa.external_)
                && not (value_escapes (Vinstr i))
              then
                match i.iparent with
                | Some b ->
                  diags :=
                    diag ~instr:i "L005" Warning f b
                      "%s is never freed and cannot escape (memory leak)"
                      (describe i)
                    :: !diags
                | None -> ())
        f)
    m.mfuncs;
  List.rev !diags

(* -- L006: dead stores --------------------------------------------------- *)

(* Backward may-liveness of stack slots whose address is only ever used
   by direct loads and stores; slots that reach a call are judged via
   Mod/Ref (a reading callee keeps every store alive, a pure one keeps
   none), and anything wilder is not tracked at all. *)
module Live_lattice = struct
  type fact = LBot | Live of ISet.t

  let bottom = LBot

  let equal a b =
    match (a, b) with
    | LBot, LBot -> true
    | Live a, Live b -> ISet.equal a b
    | _ -> false

  let join a b =
    match (a, b) with
    | LBot, x | x, LBot -> x
    | Live a, Live b -> Live (ISet.union a b)
end

module Live_flow = Dataflow.Make (Live_lattice)

let deadstore_tracked (mr : Modref.t) (f : func) : (int, instr) Hashtbl.t =
  let t = directly_used_allocas f in
  (* drop slots passed to a callee that may read memory: the callee can
     observe any store, so nothing targeting them is provably dead *)
  Hashtbl.iter
    (fun iid a ->
      let observed =
        List.exists
          (fun u ->
            match u.user.iop with
            | Call | Invoke -> (
              match call_callee u.user with
              | Vfunc callee | Vconst (Cfunc callee) -> Modref.may_read mr callee
              | _ -> true)
            | _ -> false)
          a.iuses
      in
      if observed then Hashtbl.remove t iid)
    (Hashtbl.copy t);
  t

let live_transfer tracked (fact : ISet.t) (i : instr) : ISet.t =
  match i.iop with
  | Load -> (
    match tracked_alloca tracked i.operands.(0) with
    | Some a -> ISet.add a.iid fact
    | None -> fact)
  | Store -> (
    match tracked_alloca tracked i.operands.(1) with
    | Some a -> ISet.remove a.iid fact
    | None -> fact)
  | _ -> fact

let check_dead_stores (mr : Modref.t) (cfg : Cfg.t) (f : func) : diag list =
  let tracked = deadstore_tracked mr f in
  if Hashtbl.length tracked = 0 then []
  else begin
    let transfer b fact =
      match fact with
      | Live_lattice.LBot -> Live_lattice.LBot
      | Live_lattice.Live s ->
        Live_lattice.Live
          (Dataflow.fold_block_backward (live_transfer tracked) b s)
    in
    let res =
      Live_flow.run ~direction:Dataflow.Backward
        ~boundary:(Live_lattice.Live ISet.empty) ~transfer cfg
    in
    let diags = ref [] in
    List.iter
      (fun b ->
        match Live_flow.after res b with
        | Live_lattice.LBot -> ()
        | Live_lattice.Live exit_fact ->
          ignore
            (Dataflow.fold_block_backward
               (fun fact i ->
                 (match i.iop with
                 | Store -> (
                   match tracked_alloca tracked i.operands.(1) with
                   | Some a when not (ISet.mem a.iid fact) ->
                     diags :=
                       diag ~instr:i "L006" Warning f b
                         "store to %s is overwritten or never read"
                         (describe a)
                       :: !diags
                   | _ -> ())
                 | _ -> ());
                 live_transfer tracked fact i)
               b exit_fact))
      f.fblocks;
    List.rev !diags
  end

(* -- L007: unreachable blocks -------------------------------------------- *)

let check_unreachable (cfg : Cfg.t) (f : func) : diag list =
  List.map
    (fun b ->
      diag "L007" Warning f b "block %s is unreachable from the entry" b.bname)
    (Cfg.unreachable cfg)

(* -- L008-L010: value-range checkers ------------------------------------- *)

(* Built on {!Range}: report only *definite* bugs — the interval of the
   relevant operand must lie entirely outside the safe set, on every
   execution reaching the instruction.  [Range.Bot] means the code is
   unreachable under the analysis, which is L007's business, so these
   checkers stay quiet there. *)
let check_value_ranges (rng : Range.t) ~l8 ~l9 ~l10 (table : Ltype.table)
    (f : func) : diag list =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          (if l8 then
             match i.iop with
             | Add | Sub | Mul -> (
               match resolve_opt table i.ity with
               | Some (Ltype.Integer k) when Ltype.is_signed k -> (
                 let x = Range.range_at rng b i.operands.(0) in
                 let y = Range.range_at rng b i.operands.(1) in
                 match Range.exact_binop i.iop x y with
                 | Some (Range.Itv (lo, hi)) ->
                   let kmin, kmax = Range.kind_range k in
                   if lo > kmax || hi < kmin then
                     add
                       (diag ~instr:i "L008" Warning f b
                          "%s %s of %a and %a always overflows (result in \
                           %a, representable [%Ld,%Ld])"
                          (Ltype.string_of_int_kind k)
                          (opcode_name i.iop) Range.pp_interval x
                          Range.pp_interval y Range.pp_interval
                          (Range.Itv (lo, hi)) kmin kmax)
                 | _ -> ())
               | _ -> ())
             | _ -> ());
          (if l9 then
             match i.iop with
             | Div | Rem -> (
               match
                 Range.is_singleton (Range.range_at rng b i.operands.(1))
               with
               | Some 0L ->
                 add
                   (diag ~instr:i "L009" Error f b
                      "%s divides by a value that is provably zero"
                      (describe i))
               | _ -> ())
             | Shl | Shr -> (
               match resolve_opt table i.ity with
               | Some (Ltype.Integer k) -> (
                 let bits = Ltype.int_bits k in
                 let s = Range.range_at rng b i.operands.(1) in
                 match s with
                 | Range.Itv _
                   when Range.meet s (Range.Itv (0L, Int64.of_int (bits - 1)))
                        = Range.Bot ->
                   add
                     (diag ~instr:i "L009" Warning f b
                        "%s shift amount %a is entirely outside [0,%d]"
                        (opcode_name i.iop) Range.pp_interval s (bits - 1))
                 | _ -> ())
               | _ -> ())
             | _ -> ());
          if l10 && i.iop = Gep then
            List.iter
              (fun (idx, n) ->
                let r = Range.range_at rng b idx in
                match r with
                | Range.Itv _
                  when Range.meet r (Range.Itv (0L, Int64.of_int (n - 1)))
                       = Range.Bot ->
                  add
                    (diag ~instr:i "L010" Error f b
                       "%s indexes a %d-element array with %a (provably \
                        out of bounds)"
                       (describe i) n Range.pp_interval r)
                | _ -> ())
              (Builder.gep_array_indices table i))
        b.instrs)
    f.fblocks;
  List.rev !diags

(* -- Driver --------------------------------------------------------------- *)

(* [only] selects checkers by diagnostic code (L003 and L004 are one
   checker: naming either enables both). *)
let run ?only (m : modul) : diag list =
  let enabled code =
    match only with
    | None -> true
    | Some codes ->
      List.mem code codes
      || (code = "L003" && List.mem "L004" codes)
      || (code = "L004" && List.mem "L003" codes)
  in
  let mr = Modref.compute m in
  let need_dsa = enabled "L003" || enabled "L004" || enabled "L005" in
  let dsa = if need_dsa then Some (Dsa.run m) else None in
  let l8 = enabled "L008" and l9 = enabled "L009" and l10 = enabled "L010" in
  let rng = if l8 || l9 || l10 then Some (Range.analyze m) else None in
  let per_func =
    List.concat_map
      (fun f ->
        if is_declaration f then []
        else
          let cfg = Cfg.build f in
          List.concat
            [ (if enabled "L001" then fst (check_uninit mr cfg f) else []);
              (if enabled "L002" then check_null m.mtypes cfg f else []);
              (match dsa with
              | Some dsa when enabled "L003" || enabled "L004" ->
                check_free_state dsa cfg f
              | _ -> []);
              (if enabled "L006" then check_dead_stores mr cfg f else []);
              (if enabled "L007" then check_unreachable cfg f else []);
              (match rng with
              | Some rng -> check_value_ranges rng ~l8 ~l9 ~l10 m.mtypes f
              | None -> []) ])
      m.mfuncs
  in
  let leaks =
    match dsa with
    | Some dsa when enabled "L005" -> check_leaks dsa m
    | _ -> []
  in
  List.sort compare_diag (per_func @ leaks)

(* Loads proven to read never-initialized stack slots, across the whole
   module — the uninit facts the bounds check eliminator consumes. *)
let undef_loads (m : modul) : (int, unit) Hashtbl.t =
  let mr = Modref.compute m in
  let t = Hashtbl.create 16 in
  List.iter
    (fun f ->
      if not (is_declaration f) then
        ISet.iter (fun iid -> Hashtbl.replace t iid ()) (snd (check_uninit mr (Cfg.build f) f)))
    m.mfuncs;
  t

let has_errors (ds : diag list) : bool =
  List.exists (fun d -> d.severity = Error) ds
