(* Standard pass pipelines and the pass registry.

   [per_module] approximates the static per-translation-unit optimizer
   (paper section 3.2); [link_time_ipo] is the interprocedural pipeline
   run by the linker (section 3.3). *)

let all_passes =
  [ Mem2reg.pass; Sroa.pass; Constprop.pass; Sccp.pass; Dce.pass;
    Dce.adce_pass; Simplify_cfg.pass; Gvn.pass; Reassociate.pass;
    Storeforward.pass; Licm.pass; Inline.pass; Dge.pass; Dae.pass;
    Tailrec.pass; Prune_eh.pass; Boundscheck.insert_pass;
    Boundscheck.elim_pass; Ipconstprop.pass; Rangeprop.pass; Deadtypes.pass;
    Poolalloc.pass; Lintpass.pass ]

let () = List.iter Pass.register all_passes

(* The front-end emits allocas; these passes build SSA and clean up. *)
let per_function_cleanup =
  [ Sroa.pass; Mem2reg.pass; Constprop.pass; Simplify_cfg.pass; Dce.pass ]

let per_module =
  per_function_cleanup
  @ [ Sccp.pass; Reassociate.pass; Gvn.pass; Licm.pass; Storeforward.pass;
      Constprop.pass; Gvn.pass; Simplify_cfg.pass; Dce.adce_pass ]

(* Aggressive whole-program pipeline for link time. *)
let link_time_ipo =
  [ Mem2reg.pass; Sroa.pass; Constprop.pass; Simplify_cfg.pass;
    Prune_eh.pass; Inline.pass; Simplify_cfg.pass; Gvn.pass;
    Storeforward.pass; Constprop.pass; Inline.pass; Simplify_cfg.pass;
    Gvn.pass; Storeforward.pass; Constprop.pass; Inline.pass;
    Simplify_cfg.pass; Gvn.pass; Storeforward.pass; Constprop.pass;
    Reassociate.pass; Simplify_cfg.pass; Dce.adce_pass; Ipconstprop.pass;
    Rangeprop.pass; Constprop.pass; Dce.adce_pass; Dae.pass; Dge.pass;
    Deadtypes.pass ]

(* The level table: the one place an optimization level becomes a pass
   list. *)
let o3 = per_module @ link_time_ipo

let is_level (l : int) : bool = 0 <= l && l <= 3

let passes ~(level : int) : Pass.t list =
  match level with
  | 0 -> []
  | 1 -> per_function_cleanup
  | 2 -> per_module
  | 3 -> o3
  | _ -> invalid_arg (Printf.sprintf "Pipelines.passes: level %d not in 0..3" level)

let optimize_module ?(level = 2) (m : Llvm_ir.Ir.modul) : unit =
  ignore (Pass.run_sequence (passes ~level) m)
