(* Profile-guided speculative optimization (paper sections 3.5 / 4.1).

   The aggregate fleet profile names, for every indirect call site, the
   callees observed in the field.  When one target dominates, [promote]
   rewrites the site into a guarded direct call:

       B:          ...                         B:       ...
                   %r = call %fp(args)   ==>           %ok = seteq %fp, @tgt
                   rest                                br %ok, B.spec, B.deopt
                                           B.spec:     %rs = call @tgt(args)
                                                       br B.cont
                                           B.deopt:    call @llvm_deopt()
                                                       %r  = call %fp(args)
                                                       br B.cont
                                           B.cont:     %r' = phi [%rs, B.spec],
                                                                [%r, B.deopt]
                                                       rest

   The speculation is sound for *any* profile — even a stale or
   adversarial one — because the guard compares the actual function
   pointer against the predicted target and the deopt arm re-executes
   the original indirect call unchanged.  [llvm_deopt] only counts the
   failed guard (the runtime half of the deopt protocol; see [Engine]):
   the re-execution is an ordinary call, so the engine runs its target
   the way it runs every other function.

   An invoke site speculates the same way, with both arms becoming
   invokes into a join block that forwards to the original normal
   destination; unwind-destination phis are extended to the two new
   predecessor blocks, exactly like the inliner's handler surgery.

   [promote_unguarded] deliberately elides the guard — a direct call to
   the predicted target with no fallback.  It is the fuzz harness's
   self-test miscompile (registered there as [inject-spec-noguard]):
   any run whose site targets a different function diverges, and the
   six-way oracle must catch it. *)

open Llvm_ir
open Ir
module Profile = Llvm_profile.Profile

type stats = {
  promoted : int; (* sites rewritten to guarded direct calls *)
  unguarded : int; (* sites rewritten without a guard (self-test only) *)
  inlined : int;
  deleted : int;
}

let default_min_count = 8
let default_min_share = 0.8

(* The runtime's deopt hook: void llvm_deopt(void), declared on demand. *)
let deopt_decl (m : modul) : func =
  match find_func m "llvm_deopt" with
  | Some f -> f
  | None ->
    let f = mk_func ~name:"llvm_deopt" ~return:Ltype.Void ~params:[] () in
    add_func m f;
    f

(* A candidate: an indirect call/invoke site with its profile key
   (function/block/index in the *untransformed* module — the names the
   field profiles were keyed under). *)
type site = { s_instr : instr; s_block : string; s_index : int }

let is_indirect (i : instr) : bool =
  match i.operands.(0) with
  | Vfunc _ | Vconst (Cfunc _) | Vconst (Ccast (_, Cfunc _)) -> false
  | _ -> true

let collect_sites (f : func) : site list =
  List.concat_map
    (fun b ->
      let k = ref (-1) in
      List.filter_map
        (fun i ->
          match i.iop with
          | Call | Invoke ->
            incr k;
            if is_indirect i then
              Some { s_instr = i; s_block = b.bname; s_index = !k }
            else None
          | _ -> None)
        b.instrs)
    f.fblocks

(* Pick the speculation target for a site: the hottest observed callee,
   provided the site is warm enough and the target dominant enough. *)
let decide (p : Profile.t) ~(min_count : int) ~(min_share : float) (m : modul)
    (fname : string) (s : site) : func option =
  match
    Profile.call_targets p ~func:fname ~block:s.s_block ~index:s.s_index
  with
  | [] -> None
  | ((top, n) :: _ : (string * int) list) as targets ->
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 targets in
    if total >= min_count && float_of_int n >= min_share *. float_of_int total
    then find_func m top
    else None

(* The callee value for a direct call to [tgt] at a site whose callee
   operand has type [fp_ty]: plain @tgt when the types agree, otherwise
   a constant cast so the rewritten site type-checks exactly like the
   original (the execution engine resolves both to [tgt] directly). *)
let direct_callee table (fp_ty : Ltype.t) (tgt : func) : value =
  if Ltype.equal table fp_ty (type_of table (Vfunc tgt)) then Vfunc tgt
  else Vconst (Ccast (fp_ty, Cfunc tgt))

(* Rewrite one site into the guarded form.  Returns false when the site
   shape rules it out (no terminator after it, degenerate invoke). *)
let promote_site (m : modul) (f : func) (s : site) (tgt : func) : bool =
  let table = m.mtypes in
  let i = s.s_instr in
  match i.iparent with
  | None -> false
  | Some b -> (
    let fpv = i.operands.(0) in
    let fp_ty = type_of table fpv in
    let tgt_callee = direct_callee table fp_ty tgt in
    (* the guard compares the live pointer with the predicted target's
       address; [tgt_callee] already has the pointer's static type *)
    let mk_guard_and_branch ~(bspec : block) ~(bdeopt : block) =
      let guard =
        mk_instr ~name:(i.iname ^ ".ok") ~ty:Ltype.Bool SetEQ
          [ fpv; tgt_callee ]
      in
      append_instr b guard;
      append_instr b
        (mk_instr ~ty:Ltype.Void Br
           [ Vinstr guard; Vblock bspec; Vblock bdeopt ]);
      guard
    in
    let merge_result ~(join : block) ~(bspec : block) ~(bdeopt : block)
        (direct : instr) =
      (* The site's value after the rewrite: a phi of the two arms.
         Replace uses first, while the phi has no operands, so the phi
         does not capture itself. *)
      if i.ity <> Ltype.Void && num_uses (Vinstr i) > 0 then begin
        let phi = mk_instr ~name:i.iname ~ty:i.ity Phi [] in
        prepend_instr join phi;
        replace_all_uses_with (Vinstr i) (Vinstr phi);
        phi_add_incoming phi (Vinstr direct) bspec;
        phi_add_incoming phi (Vinstr i) bdeopt
      end
    in
    match i.iop with
    | Call -> (
      match terminator b with
      | Some t when not (t == i) ->
        (* split off the continuation, leaving [i] at the end of [b] *)
        let cont = Inline.split_block_after f b i ~suffix:".cont" in
        let bspec = mk_block ~name:(b.bname ^ ".spec") () in
        let bdeopt = mk_block ~name:(b.bname ^ ".deopt") () in
        append_block f bspec;
        append_block f bdeopt;
        (* move the site into the deopt arm, behind the runtime hook *)
        unlink_instr i;
        ignore (mk_guard_and_branch ~bspec ~bdeopt);
        let direct =
          mk_instr ~name:(i.iname ^ ".spec") ~ty:i.ity Call
            (tgt_callee :: call_args i)
        in
        append_instr bspec direct;
        append_instr bspec (mk_instr ~ty:Ltype.Void Br [ Vblock cont ]);
        append_instr bdeopt
          (mk_instr ~ty:Ltype.Void Call [ Vfunc (deopt_decl m) ]);
        append_instr bdeopt i;
        append_instr bdeopt (mk_instr ~ty:Ltype.Void Br [ Vblock cont ]);
        merge_result ~join:cont ~bspec ~bdeopt direct;
        true
      | _ -> false)
    | Invoke ->
      let normal = as_block i.operands.(1) in
      let unwind = as_block i.operands.(2) in
      if normal == unwind then false
      else begin
        let bspec = mk_block ~name:(b.bname ^ ".spec") () in
        let bdeopt = mk_block ~name:(b.bname ^ ".deopt") () in
        let join = mk_block ~name:(b.bname ^ ".join") () in
        append_block f bspec;
        append_block f bdeopt;
        append_block f join;
        (* the invoke is b's terminator: pull it out, then guard *)
        unlink_instr i;
        ignore (mk_guard_and_branch ~bspec ~bdeopt);
        let direct =
          mk_instr ~name:(i.iname ^ ".spec") ~ty:i.ity Invoke
            (tgt_callee :: Vblock join :: Vblock unwind :: call_args i)
        in
        append_instr bspec direct;
        append_instr bdeopt
          (mk_instr ~ty:Ltype.Void Call [ Vfunc (deopt_decl m) ]);
        (* the original invoke now lands in the join block *)
        set_operand i 1 (Vblock join);
        append_instr bdeopt i;
        append_instr join (mk_instr ~ty:Ltype.Void Br [ Vblock normal ]);
        merge_result ~join ~bspec ~bdeopt direct;
        (* the normal destination's phis: predecessor b -> join *)
        Inline.retarget_phis normal ~old_pred:b ~new_pred:join;
        (* the handler's phis: b -> {b.spec, b.deopt}, same value *)
        Inline.extend_handler_phis unwind ~via:b [ bspec; bdeopt ];
        List.iter
          (fun pi -> if pi.iop = Phi then phi_remove_incoming pi b)
          unwind.instrs;
        true
      end
    | _ -> false)

(* -- Drivers ---------------------------------------------------------------- *)

let promote ?(min_count = default_min_count) ?(min_share = default_min_share)
    (p : Profile.t) (m : modul) : int =
  let n = ref 0 in
  List.iter
    (fun f ->
      if not (is_declaration f) then
        (* collect against the unmutated layout, then rewrite: the
           profile keys refer to the block names and call indices the
           instrumented runs saw *)
        let sites = collect_sites f in
        List.iter
          (fun s ->
            match decide p ~min_count ~min_share m f.fname s with
            | Some tgt -> if promote_site m f s tgt then incr n
            | None -> ())
          sites)
    m.mfuncs;
  !n

(* The self-test variant: same site selection, no guard, no fallback.
   DELIBERATELY WRONG whenever the fleet profile is not a total
   function of the inputs — which is the point. *)
let promote_unguarded ?(min_count = default_min_count)
    ?(min_share = default_min_share) (p : Profile.t) (m : modul) : int =
  let table = m.mtypes in
  let n = ref 0 in
  List.iter
    (fun f ->
      if not (is_declaration f) then
        List.iter
          (fun s ->
            match decide p ~min_count ~min_share m f.fname s with
            | Some tgt ->
              let fp_ty = type_of table (s.s_instr.operands.(0)) in
              set_operand s.s_instr 0 (direct_callee table fp_ty tgt);
              incr n
            | None -> ())
          (collect_sites f))
    m.mfuncs;
  !n

(* The full aggregate-driven pipeline: speculative promotion first (it
   keys off the original block names), then profile-guided inlining —
   promoted sites whose guards the inliner can now see become direct
   calls it may integrate — then the standard post-inline cleanup (the
   inliner leaves redundant copies and branches behind, the same reason
   [Pipelines.link_time_ipo] follows every inline round with these). *)
let optimize ?min_count ?min_share ?(inline_threshold = Inline.default_threshold)
    (p : Profile.t) (m : modul) : stats =
  let promoted = promote ?min_count ?min_share p m in
  let s = Inline.run ~threshold:inline_threshold ~profile:p m in
  List.iter
    (fun pass -> ignore (Pass.run_pass pass m))
    [ Simplify_cfg.pass; Gvn.pass; Storeforward.pass; Constprop.pass;
      Dce.adce_pass ];
  { promoted; unguarded = 0; inlined = s.Inline.inlined_calls;
    deleted = s.Inline.deleted_functions }
