(* A generic iterative dataflow engine over a function's CFG.

   The paper's "lifelong analysis" story rests on being able to run
   static analyses over the persistent IR at every stage of a program's
   lifetime (sections 3.2-3.3); this module supplies the shared
   machinery: a worklist solver parameterized over the lattice, the
   direction, and the per-block transfer function.  Clients include the
   lint checker suite and any flow-sensitive optimization pass.

   Facts are tracked at block granularity ([before] = fact at the block
   entry, [after] = fact at the block exit, both in *program* order
   regardless of analysis direction); checkers that need per-instruction
   facts re-walk a block's instructions from the block-level fact with
   the same instruction transfer they folded into the block transfer.

   The solver runs over the function's {!Cfg.t}: facts and the worklist
   are arrays by CFG position.  The worklist is seeded in reverse
   postorder (forward analyses) or postorder (backward analyses), so
   acyclic regions converge in one sweep and loops in a handful.
   Unreachable blocks are never visited, in either direction: the CFG
   holds only reachable predecessors, so their facts stay at [bottom],
   which doubles as the "no information" element clients use to skip
   them. *)

open Llvm_ir
open Ir

type direction = Forward | Backward

module type LATTICE = sig
  type fact

  val bottom : fact
  (** Identity of [join]; also the initial fact of unvisited blocks. *)

  val equal : fact -> fact -> bool
  val join : fact -> fact -> fact
end

(* Fold an instruction-level transfer through a block, in program order
   or in reverse.  Polymorphic helpers shared by block transfers and by
   the per-instruction reporting walks. *)
let fold_block_forward (tf : 'a -> instr -> 'a) (b : block) (fact : 'a) : 'a =
  List.fold_left tf fact b.instrs

let fold_block_backward (tf : 'a -> instr -> 'a) (b : block) (fact : 'a) : 'a =
  List.fold_left tf fact (List.rev b.instrs)

module Make (L : LATTICE) = struct
  type result = {
    cfg : Cfg.t;
    before_fact : L.fact array; (* position -> fact at block entry *)
    after_fact : L.fact array; (* position -> fact at block exit *)
  }

  let fact (r : result) facts (b : block) : L.fact =
    match Cfg.index r.cfg b with -1 -> L.bottom | k -> facts.(k)

  let before (r : result) (b : block) = fact r r.before_fact b
  let after (r : result) (b : block) = fact r r.after_fact b

  (* [boundary] is the fact entering the function (forward) or the fact
     at every exit block (backward).  [transfer b fact] maps the fact at
     one end of [b] to the fact at the other; it must be monotone for
     termination, and should map [bottom] to [bottom] when it wants
     unreached predecessors to stay silent. *)
  let run ~(direction : direction) ~(boundary : L.fact)
      ~(transfer : block -> L.fact -> L.fact) (cfg : Cfg.t) : result =
    let n = Cfg.size cfg in
    let r = { cfg; before_fact = Array.make n L.bottom; after_fact = Array.make n L.bottom } in
    let queue = Queue.create () and queued = Array.make n false in
    let enqueue k =
      if not queued.(k) then begin
        queued.(k) <- true;
        Queue.add k queue
      end
    in
    for j = 0 to n - 1 do
      enqueue (if direction = Forward then j else n - 1 - j)
    done;
    (* a bound on steps, against a transfer that is not monotone *)
    let steps = ref 0 in
    while (not (Queue.is_empty queue)) && !steps < 1_000_000 do
      incr steps;
      let k = Queue.pop queue in
      queued.(k) <- false;
      let b = Cfg.block cfg k in
      match direction with
      | Forward ->
        let inp =
          Array.fold_left
            (fun acc p -> L.join acc r.after_fact.(p))
            (if k = 0 then boundary else L.bottom)
            (Cfg.preds cfg k)
        in
        r.before_fact.(k) <- inp;
        let out = transfer b inp in
        if not (L.equal out r.after_fact.(k)) then begin
          r.after_fact.(k) <- out;
          Array.iter enqueue (Cfg.succs cfg k)
        end
      | Backward ->
        let out =
          match Cfg.succs cfg k with
          | [||] -> boundary
          | ss -> Array.fold_left (fun acc s -> L.join acc r.before_fact.(s)) L.bottom ss
        in
        r.after_fact.(k) <- out;
        let inp = transfer b out in
        if not (L.equal inp r.before_fact.(k)) then begin
          r.before_fact.(k) <- inp;
          Array.iter enqueue (Cfg.preds cfg k)
        end
    done;
    r
end
