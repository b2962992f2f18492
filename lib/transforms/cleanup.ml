(* Shared CFG cleanup utilities used by several passes. *)

open Llvm_ir
open Ir

(* Delete every block not reachable from the entry, fixing up the phis of
   reachable successors.  Returns true when anything was removed. *)
let remove_unreachable_blocks (f : func) : bool =
  if is_declaration f then false
  else begin
    let cfg = Cfg.build f in
    let dead = Cfg.unreachable cfg in
    if dead = [] then false
    else begin
      let is_dead b = Cfg.index cfg b < 0 in
      (* Remove phi entries flowing in from dead predecessors. *)
      List.iter
        (fun b ->
          match terminator b with
          | Some t ->
            List.iter
              (fun s ->
                if not (is_dead s) then
                  List.iter
                    (fun i -> if i.iop = Phi then phi_remove_incoming i b)
                    s.instrs)
              (successors t)
          | None -> ())
        dead;
      (* Break def-use links out of dead code, then erase. *)
      List.iter
        (fun b ->
          List.iter
            (fun i ->
              if i.ity <> Ltype.Void then
                replace_all_uses_with (Vinstr i) (Vconst (Cundef i.ity)))
            b.instrs)
        dead;
      List.iter
        (fun b ->
          List.iter (fun i -> erase_instr i) (List.rev b.instrs);
          remove_block f b)
        dead;
      true
    end
  end

(* Delete trivially dead instructions (no uses, no side effects) until a
   fixpoint; a cheap clean-up run after bigger transformations. *)
let delete_dead_instrs (f : func) : bool =
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    List.iter
      (fun b ->
        let dead =
          List.filter
            (fun i ->
              (not (has_side_effects i.iop))
              && (not (may_trap i))
              && i.iuses = [])
            b.instrs
        in
        if dead <> [] then begin
          List.iter erase_instr dead;
          changed := true;
          continue_ := true
        end)
      f.fblocks
  done;
  !changed
