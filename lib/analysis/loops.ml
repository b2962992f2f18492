(* Natural-loop detection.

   A back edge t->h is an edge whose target dominates its source; the
   natural loop of the edge is h plus every block that can reach t
   without passing through h.  The runtime profiler (paper section 3.5)
   instruments exactly these loop regions.  Both are computed over the
   positions of the dominator tree's CFG, so only reachable blocks are
   in a loop. *)

open Llvm_ir
open Ir

type loop = {
  header : block;
  body : block list; (* includes the header *)
  latches : block list; (* sources of back edges into the header *)
}

let back_edges (dom : Dominance.t) (f : func) : (block * block) list =
  let cfg = Dominance.cfg dom in
  List.concat_map
    (fun b ->
      match Cfg.index cfg b with
      | -1 -> []
      | k ->
        Array.fold_right
          (fun s acc ->
            let h = Cfg.block cfg s in
            if Dominance.dominates dom h b then (b, h) :: acc else acc)
          (Cfg.succs cfg k) [])
    f.fblocks

(* All natural loops, merging loops that share a header.  Each back edge
   adds the blocks its natural loop brings, in layout order; a block
   already in the loop brought its predecessors with it. *)
let find_loops (dom : Dominance.t) (f : func) : loop list =
  let cfg = Dominance.cfg dom in
  let edges = back_edges dom f in
  let loop header =
    let latches = List.filter_map (fun (l, h) -> if h == header then Some l else None) edges in
    (* position -> the back edge that first added it *)
    let added = Array.make (Cfg.size cfg) (-1) in
    added.(Cfg.index cfg header) <- 0;
    let brought e latch =
      let rec add k =
        if added.(k) < 0 then begin
          added.(k) <- e;
          Array.iter add (Cfg.preds cfg k)
        end
      in
      add (Cfg.index cfg latch);
      List.filter (fun b -> Cfg.index cfg b >= 0 && added.(Cfg.index cfg b) = e) f.fblocks
    in
    { header; body = List.concat (List.mapi brought latches); latches }
  in
  List.map loop (List.sort_uniq (fun a b -> compare a.bid b.bid) (List.map snd edges))
