(* Dead exception-handler pruning.

   The paper (section 4.1.2) notes that having the whole program at link
   time lets LLVM "use an interprocedural analysis to eliminate unused
   exception handlers".  A function cannot unwind when its body contains
   no reachable `unwind` and every call is to a function that itself
   cannot unwind; invokes of such callees become plain calls and their
   handlers usually die with them. *)

open Llvm_ir
open Ir

type stats = {
  mutable converted_invokes : int;
  mutable nounwind_functions : int;
}

(* Fixpoint: may_unwind(f).  Declarations are assumed to unwind unless
   whitelisted as runtime primitives known not to throw. *)
let nounwind_declarations =
  [ "printf"; "puts"; "putchar"; "exit"; "llvm_bounds_check" ]

let compute_may_unwind (m : modul) : (int, bool) Hashtbl.t =
  let may : (int, bool) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let initial =
        if is_declaration f then
          not (List.mem f.fname nounwind_declarations)
        else false
      in
      Hashtbl.replace may f.fid initial)
    m.mfuncs;
  let get f = try Hashtbl.find may f.fid with Not_found -> true in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        if (not (is_declaration f)) && not (get f) then begin
          let unwinds = ref false in
          iter_instrs
            (fun i ->
              match i.iop with
              | Unwind -> unwinds := true
              | Call -> (
                (* an invoke catches its callee's unwind, a call does not *)
                match call_callee i with
                | Vfunc callee | Vconst (Cfunc callee) ->
                  if get callee then unwinds := true
                | _ -> unwinds := true (* unknown indirect target *))
              | _ -> ())
            f;
          if !unwinds then begin
            Hashtbl.replace may f.fid true;
            changed := true
          end
        end)
      m.mfuncs
  done;
  may

let run (m : modul) : stats =
  let stats = { converted_invokes = 0; nounwind_functions = 0 } in
  let may = compute_may_unwind m in
  Hashtbl.iter (fun _ v -> if not v then
    stats.nounwind_functions <- stats.nounwind_functions + 1) may;
  List.iter
    (fun f ->
      if not (is_declaration f) then begin
        let sites = ref [] in
        iter_instrs
          (fun i ->
            if i.iop = Invoke then
              match call_callee i with
              | Vfunc callee | Vconst (Cfunc callee) ->
                if not (try Hashtbl.find may callee.fid with Not_found -> true)
                then sites := i :: !sites
              | _ -> ())
          f;
        List.iter
          (fun site ->
            let b = Option.get site.iparent in
            let normal = as_block site.operands.(1) in
            let unwind_dest = as_block site.operands.(2) in
            let callee = site.operands.(0) in
            let args = call_args site in
            (* the handler loses this predecessor *)
            if not (unwind_dest == normal) then
              List.iter
                (fun i -> if i.iop = Phi then phi_remove_incoming i b)
                unwind_dest.instrs;
            let call =
              mk_instr ~name:site.iname ~ty:site.ity Call (callee :: args)
            in
            insert_before ~point:site call;
            replace_all_uses_with (Vinstr site) (Vinstr call);
            erase_instr site;
            append_instr b (mk_instr ~ty:Ltype.Void Br [ Vblock normal ]);
            stats.converted_invokes <- stats.converted_invokes + 1)
          !sites;
        if !sites <> [] then ignore (Cleanup.remove_unreachable_blocks f)
      end)
    m.mfuncs;
  stats

let pass =
  Pass.make ~name:"prune-eh"
    ~description:"convert invokes of no-unwind callees; drop dead handlers"
    (fun m -> (run m).converted_invokes > 0)
