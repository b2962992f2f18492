(* Dominator tree and dominance frontiers.

   Implementation of Cooper, Harvey & Kennedy, "A Simple, Fast Dominance
   Algorithm": iterate the idom fixpoint over reverse postorder using
   interleaved finger intersection.  Dominance frontiers follow the
   Cytron et al. construction used by SSA-building (paper section 3.2:
   the stack promotion pass "inserts phi functions as necessary"). *)

open Llvm_ir
open Ir

type t = {
  entry : block;
  idom : (int, block) Hashtbl.t; (* block id -> immediate dominator *)
  rpo_index : (int, int) Hashtbl.t;
  order : block array; (* reverse postorder *)
  children : (int, block list) Hashtbl.t; (* block id -> children, in RPO *)
}

let compute (f : func) : t =
  let order = Array.of_list (Cfg.reverse_postorder f) in
  let rpo_index = Hashtbl.create 64 in
  Array.iteri (fun k b -> Hashtbl.replace rpo_index b.bid k) order;
  let entry = order.(0) in
  let idom : (int, block) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.replace idom entry.bid entry;
  let intersect b1 b2 =
    let finger1 = ref b1 and finger2 = ref b2 in
    while not (!finger1 == !finger2) do
      let idx b = Hashtbl.find rpo_index b.bid in
      while idx !finger1 > idx !finger2 do
        finger1 := Hashtbl.find idom !finger1.bid
      done;
      while idx !finger2 > idx !finger1 do
        finger2 := Hashtbl.find idom !finger2.bid
      done
    done;
    !finger1
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun k b ->
        if k > 0 then begin
          let preds =
            List.filter
              (fun p -> Hashtbl.mem rpo_index p.bid (* reachable only *))
              (predecessors b)
          in
          let processed =
            List.filter (fun p -> Hashtbl.mem idom p.bid) preds
          in
          match processed with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            (match Hashtbl.find_opt idom b.bid with
            | Some old when old == new_idom -> ()
            | _ ->
              Hashtbl.replace idom b.bid new_idom;
              changed := true)
        end)
      order
  done;
  (* Walking the order backwards and consing leaves each child list in
     reverse postorder. *)
  let children = Hashtbl.create 64 in
  for k = Array.length order - 1 downto 1 do
    let b = order.(k) in
    match Hashtbl.find_opt idom b.bid with
    | Some d ->
      let siblings = Option.value ~default:[] (Hashtbl.find_opt children d.bid) in
      Hashtbl.replace children d.bid (b :: siblings)
    | None -> ()
  done;
  { entry; idom; rpo_index; order; children }

let idom (t : t) (b : block) : block option =
  match Hashtbl.find_opt t.idom b.bid with
  | Some d when not (d == b) -> Some d
  | Some _ -> None (* the entry *)
  | None -> None (* unreachable *)

let is_reachable (t : t) (b : block) = Hashtbl.mem t.rpo_index b.bid

(* a dominates b (reflexive). *)
let dominates (t : t) (a : block) (b : block) : bool =
  if not (is_reachable t b) then false
  else begin
    let rec walk b = if a == b then true else
      match idom t b with Some d -> walk d | None -> false
    in
    walk b
  end

let strictly_dominates (t : t) a b = (not (a == b)) && dominates t a b

(* Children in the dominator tree, in reverse postorder. *)
let children (t : t) (b : block) : block list =
  Option.value ~default:[] (Hashtbl.find_opt t.children b.bid)

(* Dominance frontier: DF(b) = blocks j with a pred dominated by b (or = b)
   where b does not strictly dominate j. *)
let frontiers (t : t) (f : func) : (int, block list) Hashtbl.t =
  let df : (int, block list) Hashtbl.t = Hashtbl.create 64 in
  Array.iter (fun b -> Hashtbl.replace df b.bid []) t.order;
  Array.iter
    (fun b ->
      let preds = List.filter (is_reachable t) (predecessors b) in
      if List.length preds >= 2 then
        List.iter
          (fun p ->
            let runner = ref p in
            let stop =
              match idom t b with Some d -> d | None -> t.entry
            in
            while not (!runner == stop) do
              let cur = !runner in
              let existing = Hashtbl.find df cur.bid in
              if not (List.exists (fun x -> x == b) existing) then
                Hashtbl.replace df cur.bid (b :: existing);
              match idom t cur with
              | Some d -> runner := d
              | None -> runner := stop
            done)
          preds)
    t.order;
  ignore f;
  df

let frontier_of (df : (int, block list) Hashtbl.t) (b : block) : block list =
  match Hashtbl.find_opt df b.bid with Some l -> l | None -> []

(* Does the definition point of [v] dominate instruction [user]?  Used by
   the SSA checker.  Definitions in the same block must appear earlier. *)
let value_dominates_use (t : t) (v : value) (user : instr) (user_block : block) :
    bool =
  match v with
  | Vconst _ | Vglobal _ | Vfunc _ | Varg _ | Vblock _ -> true
  | Vinstr def -> (
    match def.iparent with
    | None -> false
    | Some def_block ->
      if def_block == user_block then begin
        (* def must come before user in the block *)
        let rec scan = function
          | [] -> false
          | i :: _ when i == user -> false
          | i :: _ when i == def -> true
          | _ :: rest -> scan rest
        in
        scan def_block.instrs
      end
      else strictly_dominates t def_block user_block)
