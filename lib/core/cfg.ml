(* Control-flow-graph utilities: block orderings and reachability.

   The CFG itself is implicit in the representation (every terminator
   names its successors, section 2.1); these helpers compute the derived
   orderings used by the dominator construction and the dataflow passes. *)

open Ir

(* Depth-first reverse postorder over reachable blocks, starting from
   the entry: a block is consed on when its successors are done, so the
   last block finished ends up first. *)
let reverse_postorder (f : func) : block list =
  let visited = Ids.create 16 in
  let order = ref [] in
  let rec dfs b =
    if not (Ids.mem visited b.bid) then begin
      Ids.add visited b.bid ();
      (match terminator b with
      | Some t -> List.iter dfs (successors t)
      | None -> ());
      order := b :: !order
    end
  in
  (match f.fblocks with b :: _ -> dfs b | [] -> ());
  !order

let postorder (f : func) : block list = List.rev (reverse_postorder f)

let reachable_set (f : func) : (int, unit) Hashtbl.t =
  let set = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace set b.bid ()) (postorder f);
  set

let unreachable_blocks (f : func) : block list =
  let reachable = reachable_set f in
  List.filter (fun b -> not (Hashtbl.mem reachable b.bid)) f.fblocks

