(* Dominator tree and dominance frontiers.

   Implementation of Cooper, Harvey & Kennedy, "A Simple, Fast Dominance
   Algorithm": iterate the idom fixpoint over reverse postorder using
   interleaved finger intersection.  Dominance frontiers follow the
   Cytron et al. construction used by SSA-building (paper section 3.2:
   the stack promotion pass "inserts phi functions as necessary"). *)

open Ir

(* Blocks are numbered by their reverse-postorder position; the idom
   fixpoint, the tree and the dominance test all work on those numbers,
   and one table maps a block id to its number. *)
type t = {
  entry : block;
  rpo_index : Ids.Numbering.t; (* block id -> position in [order] *)
  order : block array; (* reverse postorder *)
  idom : int array; (* position -> position of the immediate dominator *)
  children : block list array; (* position -> children, in RPO *)
  pre : int array; (* dominator-tree preorder number of each position *)
  last : int array; (* largest preorder number in the position's subtree *)
}

let compute (f : func) : t =
  let order = Array.of_list (Cfg.reverse_postorder f) in
  let n = Array.length order in
  let rpo_index = Ids.Numbering.create n in
  Array.iter (fun b -> ignore (Ids.Numbering.add rpo_index b.bid)) order;
  let entry = order.(0) in
  (* reachable predecessors, by position *)
  let preds =
    Array.map
      (fun b ->
        List.filter_map
          (fun p -> match Ids.Numbering.find rpo_index p.bid with -1 -> None | k -> Some k)
          (predecessors b))
      order
  in
  let idom = Array.make n (-1) in
  idom.(0) <- 0;
  let rec intersect b1 b2 =
    if b1 = b2 then b1
    else if b1 > b2 then intersect idom.(b1) b2
    else intersect b1 idom.(b2)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 1 to n - 1 do
      (* intersect the predecessors processed so far, in order *)
      let new_idom =
        List.fold_left
          (fun acc p -> if idom.(p) < 0 then acc else if acc < 0 then p else intersect acc p)
          (-1) preds.(k)
      in
      if new_idom >= 0 && idom.(k) <> new_idom then begin
        idom.(k) <- new_idom;
        changed := true
      end
    done
  done;
  (* Walking the order backwards and consing leaves each child list in
     reverse postorder. *)
  let children = Array.make n [] in
  for k = n - 1 downto 1 do
    let d = idom.(k) in
    if d >= 0 then children.(d) <- order.(k) :: children.(d)
  done;
  let pre = Array.make n 0 and last = Array.make n 0 in
  let counter = ref 0 in
  let rec number k =
    pre.(k) <- !counter;
    incr counter;
    List.iter (fun c -> number (Ids.Numbering.find rpo_index c.bid)) children.(k);
    last.(k) <- !counter - 1
  in
  number 0;
  { entry; rpo_index; order; idom; children; pre; last }

let idom (t : t) (b : block) : block option =
  let k = Ids.Numbering.find t.rpo_index b.bid in
  if k > 0 && t.idom.(k) >= 0 then Some t.order.(t.idom.(k))
  else None (* the entry, or unreachable *)

let is_reachable (t : t) (b : block) = Ids.Numbering.find t.rpo_index b.bid >= 0
let reverse_postorder (t : t) : block array = t.order

(* a dominates b (reflexive): a's tree subtree holds b. *)
let dominates (t : t) (a : block) (b : block) : bool =
  let ka = Ids.Numbering.find t.rpo_index a.bid
  and kb = Ids.Numbering.find t.rpo_index b.bid in
  ka >= 0 && kb >= 0 && t.pre.(ka) <= t.pre.(kb) && t.pre.(kb) <= t.last.(ka)

let strictly_dominates (t : t) a b = (not (a == b)) && dominates t a b

(* Children in the dominator tree, in reverse postorder. *)
let children (t : t) (b : block) : block list =
  match Ids.Numbering.find t.rpo_index b.bid with -1 -> [] | k -> t.children.(k)

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
