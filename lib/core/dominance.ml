(* Dominator tree and dominance frontiers.

   Implementation of Cooper, Harvey & Kennedy, "A Simple, Fast Dominance
   Algorithm": iterate the idom fixpoint over reverse postorder using
   interleaved finger intersection.  Dominance frontiers follow the
   Cytron et al. construction used by SSA-building (paper section 3.2:
   the stack promotion pass "inserts phi functions as necessary").

   Everything works on the positions of the function's [Cfg.t]. *)

open Ir

type t = {
  cfg : Cfg.t;
  idom : int array; (* position -> position of the immediate dominator *)
  children : block list array; (* position -> children, in RPO *)
  pre : int array; (* dominator-tree preorder number of each position *)
  size : int array; (* number of positions in the position's subtree *)
}

let compute (f : func) : t =
  let cfg = Cfg.build f in
  let n = Cfg.size cfg in
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let rec intersect b1 b2 =
    if b1 = b2 then b1
    else if b1 > b2 then intersect idom.(b1) b2
    else intersect b1 idom.(b2)
  in
  (* intersect the predecessors processed so far, in order *)
  let rec meet preds j acc =
    if j = Array.length preds then acc
    else if idom.(preds.(j)) < 0 then meet preds (j + 1) acc
    else meet preds (j + 1) (if acc < 0 then preds.(j) else intersect acc preds.(j))
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 1 to n - 1 do
      let new_idom = meet (Cfg.preds cfg k) 0 (-1) in
      if new_idom >= 0 && idom.(k) <> new_idom then begin
        idom.(k) <- new_idom;
        changed := true
      end
    done
  done;
  (* Walking the order backwards leaves each child list in reverse
     postorder and sums subtree sizes; then each child takes the next
     preorder number free under its parent. *)
  let children = Array.make n [] and size = Array.make n 1 in
  for k = n - 1 downto 1 do
    children.(idom.(k)) <- Cfg.block cfg k :: children.(idom.(k));
    size.(idom.(k)) <- size.(idom.(k)) + size.(k)
  done;
  let pre = Array.make n 0 and next = Array.make n 1 in
  for k = 1 to n - 1 do
    pre.(k) <- next.(idom.(k));
    next.(idom.(k)) <- pre.(k) + size.(k);
    next.(k) <- pre.(k) + 1
  done;
  { cfg; idom; children; pre; size }

let cfg (t : t) = t.cfg

let idom (t : t) (b : block) : block option =
  let k = Cfg.index t.cfg b in
  if k > 0 then Some (Cfg.block t.cfg t.idom.(k))
  else None (* the entry, or unreachable *)

let is_reachable (t : t) (b : block) = Cfg.index t.cfg b >= 0

(* a dominates b (reflexive): a's tree subtree holds b. *)
let dominates (t : t) (a : block) (b : block) : bool =
  let ka = Cfg.index t.cfg a and kb = Cfg.index t.cfg b in
  ka >= 0 && kb >= 0 && t.pre.(ka) <= t.pre.(kb) && t.pre.(kb) < t.pre.(ka) + t.size.(ka)

let strictly_dominates (t : t) a b = (not (a == b)) && dominates t a b

(* Children in the dominator tree, in reverse postorder. *)
let children (t : t) (b : block) : block list =
  match Cfg.index t.cfg b with -1 -> [] | k -> t.children.(k)

(* Dominance frontier: DF(b) = blocks j with a pred dominated by b (or = b)
   where b does not strictly dominate j.  Each join walks up from its
   predecessors to its immediate dominator. *)
let frontiers (t : t) : block list array =
  let df = Array.make (Cfg.size t.cfg) [] in
  for k = 0 to Cfg.size t.cfg - 1 do
    let preds = Cfg.preds t.cfg k in
    if Array.length preds >= 2 then begin
      let b = Cfg.block t.cfg k in
      Array.iter
        (fun p ->
          let runner = ref p in
          while !runner <> t.idom.(k) do
            let cur = !runner in
            if not (List.memq b df.(cur)) then df.(cur) <- b :: df.(cur);
            runner := if cur = 0 then t.idom.(k) else t.idom.(cur)
          done)
        preds
    end
  done;
  df
