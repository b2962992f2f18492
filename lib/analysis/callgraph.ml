(* Call graph construction (paper section 3.3 lists it among the
   interprocedural analyses run at link time).

   Direct calls contribute precise edges.  Indirect calls (through a
   function pointer) conservatively add edges to every address-taken
   function of a compatible type; [external_node] models calls into code
   that is not part of the module. *)

open Llvm_ir
open Ir

type node = {
  func : func;
  mutable callees : func list;
  mutable callers : func list;
  mutable calls_external : bool; (* performs an indirect/unknown call *)
}

type t = {
  nodes : node Ids.t; (* func id -> node *)
  modul : modul;
}

let node (t : t) (f : func) : node = Ids.find t.nodes f.fid

(* A function's address is taken when it is referenced other than as the
   callee of a direct call: stored in a vtable, passed as an argument... *)
let address_taken (f : func) : bool =
  List.exists
    (fun u ->
      match u.user.iop with
      | (Call | Invoke) when u.index = 0 -> false
      | _ -> true)
    f.fuses
  ||
  (* references from global initializers (e.g. vtables) *)
  match f.fparent with
  | None -> false
  | Some m ->
    let rec const_mentions = function
      | Cfunc g -> g == f
      | Ccast (_, c) -> const_mentions c
      | Carray (_, cs) | Cstruct (_, cs) -> List.exists const_mentions cs
      | Cbool _ | Cint _ | Cfloat _ | Cnull _ | Cundef _ | Czero _ | Cgvar _ ->
        false
    in
    List.exists
      (fun g -> match g.ginit with Some c -> const_mentions c | None -> false)
      m.mglobals

let compute (m : modul) : t =
  let t = { nodes = Ids.create 64; modul = m } in
  List.iter
    (fun f ->
      Ids.replace t.nodes f.fid
        { func = f; callees = []; callers = []; calls_external = false })
    m.mfuncs;
  (* Each caller's edges are added while its body is scanned, so an
     edge exists already exactly when its callee is marked with the
     caller being scanned. *)
  let position = Ids.Numbering.create (List.length m.mfuncs) in
  List.iter (fun f -> ignore (Ids.Numbering.add position f.fid)) m.mfuncs;
  let linked_from = Array.make (Ids.Numbering.count position) (-1) in
  let add_edge caller callee =
    let cn = node t caller and en = node t callee in
    let k = Ids.Numbering.find position callee.fid in
    if linked_from.(k) <> caller.fid then begin
      linked_from.(k) <- caller.fid;
      cn.callees <- callee :: cn.callees;
      en.callers <- caller :: en.callers
    end
  in
  (* each address-taken test walks every global initializer, so take
     them once, not once per indirect call site *)
  let taken = lazy (List.filter address_taken m.mfuncs) in
  let targets = Hashtbl.create 8 in
  let compatible_targets ty =
    match Hashtbl.find_opt targets ty with
    | Some fs -> fs
    | None ->
      let fs =
        List.filter
          (fun f ->
            Ltype.equal m.mtypes (func_type f)
              (match Ltype.resolve m.mtypes ty with
              | Ltype.Pointer p -> p
              | p -> p))
          (Lazy.force taken)
      in
      Hashtbl.replace targets ty fs;
      fs
  in
  List.iter
    (fun caller ->
      iter_instrs
        (fun i ->
          match i.iop with
          | Call | Invoke -> (
            match call_callee i with
            | Vfunc callee -> add_edge caller callee
            | Vconst (Cfunc callee) -> add_edge caller callee
            | v ->
              (* indirect call: every compatible address-taken function *)
              let n = node t caller in
              n.calls_external <- true;
              List.iter (add_edge caller)
                (compatible_targets (Ir.type_of m.mtypes v)))
          | _ -> ())
        caller)
    m.mfuncs;
  t

(* Bottom-up (callee before caller) strongly-connected-component order,
   via Tarjan.  Mutually recursive functions share a component. *)
let sccs (t : t) : func list list =
  let index = Ids.create 64 in
  let lowlink = Ids.create 64 in
  let on_stack = Ids.create 64 in
  let stack = ref [] in
  let counter = ref 0 in
  let result = ref [] in
  let rec strongconnect (f : func) =
    Ids.replace index f.fid !counter;
    Ids.replace lowlink f.fid !counter;
    incr counter;
    stack := f :: !stack;
    Ids.replace on_stack f.fid ();
    let n = node t f in
    List.iter
      (fun callee ->
        if not (Ids.mem index callee.fid) then begin
          strongconnect callee;
          Ids.replace lowlink f.fid
            (min (Ids.find lowlink f.fid) (Ids.find lowlink callee.fid))
        end
        else if Ids.mem on_stack callee.fid then
          Ids.replace lowlink f.fid
            (min (Ids.find lowlink f.fid) (Ids.find index callee.fid)))
      n.callees;
    if Ids.find lowlink f.fid = Ids.find index f.fid then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | g :: rest ->
          stack := rest;
          Ids.remove on_stack g.fid;
          if g == f then g :: acc else pop (g :: acc)
      in
      result := pop [] :: !result
    end
  in
  List.iter
    (fun f -> if not (Ids.mem index f.fid) then strongconnect f)
    t.modul.mfuncs;
  (* Tarjan completes callees before callers, so reversing the
     accumulator yields bottom-up (callee-first) order. *)
  List.rev !result

let is_recursive (t : t) (f : func) : bool =
  let n = node t f in
  List.exists (fun c -> c == f) n.callees
  || List.exists
       (fun scc -> List.length scc > 1 && List.exists (fun g -> g == f) scc)
       (sccs t)
