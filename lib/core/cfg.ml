(* The control-flow graph of one function, derived once.

   The CFG is implicit in the IR: every terminator names its successors
   (section 2.1).  [build] walks it depth-first from the entry, visiting
   successors in [Ir.successors] order, and numbers the reachable blocks
   by reverse-postorder position; successors and predecessors are int
   arrays over those positions.  Every block order and reachable set in
   the library is read from a [t]. *)

open Ir

type t = {
  func : func;
  blocks : block array; (* reachable blocks, in reverse postorder *)
  found : Ids.Numbering.t; (* block id -> the order the walk found it in *)
  position : int array; (* that order -> position in [blocks] *)
  succs : int array array; (* by position, in [Ir.successors] order *)
  preds : int array array; (* by position: the reachable [Ir.predecessors] *)
}

(* A terminator's successors, read in place: how many, and the j-th. *)
let succ_count (t : instr) =
  match t.iop with
  | Br -> min 2 (Array.length t.operands)
  | Switch -> Array.length t.operands / 2
  | Invoke -> 2
  | _ -> 0

let succ_block (t : instr) j =
  match t.iop with
  | Br when Array.length t.operands = 1 -> as_block t.operands.(0)
  | Switch -> as_block t.operands.((2 * j) + 1)
  | _ -> as_block t.operands.(j + 1)

let build (f : func) : t =
  let capacity = List.length f.fblocks in
  let found = Ids.Numbering.create capacity and position = Array.make capacity 0 in
  let blocks = match f.fblocks with b :: _ -> Array.make capacity b | [] -> [||] in
  let succs = Array.make capacity [||] and finished = ref 0 in
  (* Returns the order [b] was found in.  The k-th block to finish goes
     to slot [capacity - 1 - k], so the slots end in reverse postorder;
     successors are kept by the order found until every slot is known. *)
  let rec dfs b =
    if Ids.Numbering.add found b.bid then begin
      let d = Ids.Numbering.count found - 1 in
      let s =
        match terminator b with
        | Some t ->
          let s = Array.make (succ_count t) 0 in
          for j = 0 to Array.length s - 1 do
            s.(j) <- dfs (succ_block t j)
          done;
          s
        | None -> [||]
      in
      let k = capacity - 1 - !finished in
      position.(d) <- k;
      blocks.(k) <- b;
      succs.(k) <- s;
      incr finished;
      d
    end
    else Ids.Numbering.find found b.bid
  in
  (match f.fblocks with b :: _ -> ignore (dfs b) | [] -> ());
  (* unreachable blocks leave the first [skip] slots unused *)
  let n = !finished and skip = capacity - !finished in
  for d = 0 to n - 1 do
    position.(d) <- position.(d) - skip
  done;
  let dense a = if skip = 0 then a else Array.sub a skip n in
  let succs = dense succs in
  Array.iter (fun s -> for j = 0 to Array.length s - 1 do s.(j) <- position.(s.(j)) done) succs;
  let reachable b =
    let ps = predecessors b in
    let a = Array.make (List.length ps) 0 in
    let add m p = match Ids.Numbering.find found p.bid with -1 -> m | d -> a.(m) <- position.(d); m + 1 in
    let m = List.fold_left add 0 ps in
    if m = Array.length a then a else Array.sub a 0 m
  in
  let blocks = dense blocks in
  { func = f; blocks; found; position; succs; preds = Array.map reachable blocks }

let size (t : t) = Array.length t.blocks
let block (t : t) (k : int) : block = t.blocks.(k)
let index (t : t) (b : block) = match Ids.Numbering.find t.found b.bid with -1 -> -1 | d -> t.position.(d)
let succs (t : t) (k : int) : int array = t.succs.(k)
let preds (t : t) (k : int) : int array = t.preds.(k)
let unreachable (t : t) : block list = List.filter (fun b -> index t b < 0) t.func.fblocks
