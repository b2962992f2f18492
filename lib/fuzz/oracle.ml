(* The multi-oracle differential harness.

   Each oracle checks one consistency claim across the IR's forms and
   tiers.  They are judges, not transformers: anything that needs to
   rewrite the module (the optimization oracle) works on a structural
   clone, built by hand rather than through the printers or codecs so
   that a serializer bug cannot corrupt an unrelated oracle's input. *)

open Llvm_ir
open Ir

type verdict = Pass | Fail of string | Skip of string

type t = {
  o_name : string;
  o_descr : string;
  check : modul -> verdict;
}

let fuel = 10_000_000

(* -- structural clone ------------------------------------------------------- *)

let clone (m : modul) : modul =
  let nm = mk_module m.mname in
  Hashtbl.iter (fun name ty -> define_type nm name ty) m.mtypes;
  let gmap : (int, gvar) Hashtbl.t = Hashtbl.create 16 in
  let fmap : (int, func) Hashtbl.t = Hashtbl.create 16 in
  let amap : (int, arg) Hashtbl.t = Hashtbl.create 32 in
  let bmap : (int, block) Hashtbl.t = Hashtbl.create 64 in
  let imap : (int, instr) Hashtbl.t = Hashtbl.create 256 in
  (* shells for globals and functions first: constants and operands may
     reference any of them in any order *)
  List.iter
    (fun g ->
      let ng =
        mk_gvar ~linkage:g.glinkage ~constant:g.gconstant ~name:g.gname
          ~ty:g.gty ()
      in
      add_gvar nm ng;
      Hashtbl.replace gmap g.gid ng)
    m.mglobals;
  List.iter
    (fun f ->
      let nf =
        mk_func ~linkage:f.flinkage ~varargs:f.fvarargs ~name:f.fname
          ~return:f.freturn
          ~params:(List.map (fun a -> (a.aname, a.aty)) f.fargs)
          ()
      in
      add_func nm nf;
      Hashtbl.replace fmap f.fid nf;
      List.iter2 (fun a na -> Hashtbl.replace amap a.aid na) f.fargs nf.fargs;
      List.iter
        (fun b ->
          let nb = mk_block ~name:b.bname () in
          append_block nf nb;
          Hashtbl.replace bmap b.bid nb)
        f.fblocks)
    m.mfuncs;
  let rec conv_const (c : const) : const =
    match c with
    | Cbool _ | Cint _ | Cfloat _ | Cnull _ | Cundef _ | Czero _ -> c
    | Carray (ty, elts) -> Carray (ty, List.map conv_const elts)
    | Cstruct (ty, elts) -> Cstruct (ty, List.map conv_const elts)
    | Cgvar g -> Cgvar (Hashtbl.find gmap g.gid)
    | Cfunc f -> Cfunc (Hashtbl.find fmap f.fid)
    | Ccast (ty, c) -> Ccast (ty, conv_const c)
  in
  let conv_value (v : value) : value =
    match v with
    | Vconst c -> Vconst (conv_const c)
    | Vinstr i -> Vinstr (Hashtbl.find imap i.iid)
    | Varg a -> Varg (Hashtbl.find amap a.aid)
    | Vglobal g -> Vglobal (Hashtbl.find gmap g.gid)
    | Vfunc f -> Vfunc (Hashtbl.find fmap f.fid)
    | Vblock b -> Vblock (Hashtbl.find bmap b.bid)
  in
  (* instruction shells in order (phis may reference instructions that
     appear later), then operands in a second pass *)
  List.iter
    (fun f ->
      List.iter
        (fun b ->
          let nb = Hashtbl.find bmap b.bid in
          List.iter
            (fun i ->
              let ni =
                mk_instr ~name:i.iname ?alloc_ty:i.alloc_ty ~ty:i.ity i.iop []
              in
              append_instr nb ni;
              Hashtbl.replace imap i.iid ni)
            b.instrs)
        f.fblocks)
    m.mfuncs;
  List.iter
    (fun f ->
      List.iter
        (fun b ->
          List.iter
            (fun i ->
              let ni = Hashtbl.find imap i.iid in
              set_operands ni (Array.map conv_value i.operands))
            b.instrs)
        f.fblocks)
    m.mfuncs;
  List.iter
    (fun g ->
      match g.ginit with
      | Some c -> (Hashtbl.find gmap g.gid).ginit <- Some (conv_const c)
      | None -> ())
    m.mglobals;
  nm

(* -- shared helpers --------------------------------------------------------- *)

let verify_errors (m : modul) : string option =
  match Verify.verify_module m with
  | [] -> (
    match Llvm_analysis.Ssa_check.assert_ssa m with
    | () -> None
    | exception e -> Some (Printexc.to_string e))
  | errs ->
    Some
      (String.concat "; "
         (List.map (fun e -> Fmt.str "%a" Verify.pp_error e)
            (List.filteri (fun k _ -> k < 5) errs)))

type obs = {
  ob_status : string;
  ob_output : string;
  ob_instrs : int;
  ob_profile : (int * int) list;
  ob_fuel_out : bool;
}

let observe ?profile (kind : Llvm_exec.Engine.kind) (m : modul) : obs =
  let r, counts = Llvm_exec.Engine.run_main ~fuel ~profiling:true ?profile kind m in
  { ob_status = Llvm_exec.Interp.status_to_string r.Llvm_exec.Interp.status;
    ob_output = r.Llvm_exec.Interp.output;
    ob_instrs = r.Llvm_exec.Interp.instructions;
    ob_profile =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []);
    ob_fuel_out =
      r.Llvm_exec.Interp.status = `Trapped "out of fuel (infinite loop?)" }

(* Behaviour only (status + output): the module may have been
   transformed, so instruction counts and profiles are not comparable. *)
let behaviour (m : modul) : string * bool =
  let o = observe Llvm_exec.Engine.Interp_tier m in
  (o.ob_status ^ "|" ^ o.ob_output, o.ob_fuel_out)

(* -- the five oracles ------------------------------------------------------- *)

let verify_oracle =
  { o_name = "verify";
    o_descr = "verifier acceptance and SSA dominance";
    check =
      (fun m ->
        match verify_errors m with
        | None -> Pass
        | Some e -> Fail e) }

let asm_oracle =
  { o_name = "asm";
    o_descr = "print -> parse -> print is a fixpoint";
    check =
      (fun m ->
        let s1 = Printer.module_to_string m in
        match Llvm_asm.Parser.parse_module ~name:m.mname s1 with
        | exception Llvm_asm.Parser.Parse_error (msg, line) ->
          Fail (Printf.sprintf "parse error at line %d: %s" line msg)
        | exception e -> Fail ("parser raised " ^ Printexc.to_string e)
        | m2 -> (
          match verify_errors m2 with
          | Some e -> Fail ("reparsed module invalid: " ^ e)
          | None ->
            let s2 = Printer.module_to_string m2 in
            if s1 <> s2 then Fail "print/parse/print is not a fixpoint"
            else Pass)) }

let bitcode_oracle =
  { o_name = "bitcode";
    o_descr = "encode -> decode -> encode is lossless and stable";
    check =
      (fun m ->
        match Llvm_bitcode.Encoder.encode m with
        | exception e -> Fail ("encoder raised " ^ Printexc.to_string e)
        | image, _ -> (
          match Llvm_bitcode.Decoder.decode image with
          | exception Llvm_bitcode.Decoder.Malformed msg ->
            Fail ("decoder rejected own encoder's image: " ^ msg)
          | exception e -> Fail ("decoder raised " ^ Printexc.to_string e)
          | m2 ->
            if Printer.module_to_string m2 <> Printer.module_to_string m then
              Fail "decoded module prints differently"
            else (
              match verify_errors m2 with
              | Some e -> Fail ("decoded module invalid: " ^ e)
              | None ->
                let image2, _ = Llvm_bitcode.Encoder.encode m2 in
                if image2 <> image then
                  Fail "re-encoding the decoded module changed bytes"
                else Pass))) }

let exec_oracle =
  { o_name = "exec";
    o_descr = "interp, bytecode and tiered execution are identical";
    check =
      (fun m ->
        match observe Llvm_exec.Engine.Interp_tier m with
        | exception e -> Fail ("interpreter raised " ^ Printexc.to_string e)
        | reference ->
          if reference.ob_fuel_out then Skip "reference run out of fuel"
          else if
            String.length reference.ob_status >= 7
            && String.sub reference.ob_status 0 7 = "trapped"
          then Fail ("generated program trapped: " ^ reference.ob_status)
          else (
            let rec check_tiers = function
              | [] -> Pass
              | kind :: rest -> (
                match observe kind m with
                | exception e ->
                  Fail
                    (Printf.sprintf "%s tier raised %s"
                       (Llvm_exec.Engine.kind_name kind)
                       (Printexc.to_string e))
                | got ->
                  let name = Llvm_exec.Engine.kind_name kind in
                  if got.ob_status <> reference.ob_status then
                    Fail
                      (Printf.sprintf "%s status %s != interp %s" name
                         got.ob_status reference.ob_status)
                  else if got.ob_output <> reference.ob_output then
                    Fail (name ^ " output differs")
                  else if got.ob_instrs <> reference.ob_instrs then
                    Fail
                      (Printf.sprintf "%s executed %d instrs, interp %d" name
                         got.ob_instrs reference.ob_instrs)
                  else if got.ob_profile <> reference.ob_profile then
                    Fail (name ^ " block profile differs")
                  else check_tiers rest)
            in
            check_tiers
              [ Llvm_exec.Engine.Bytecode_tier; Llvm_exec.Engine.Tiered ])) }

let check_transform ~what (transform : modul -> unit) (baseline : string)
    (m : modul) : verdict =
  let c = clone m in
  match transform c with
  | exception e -> Fail (what ^ " raised " ^ Printexc.to_string e)
  | () -> (
    match verify_errors c with
    | Some e -> Fail (what ^ " broke the module: " ^ e)
    | None ->
      let got, fuel_out = behaviour c in
      if fuel_out then Skip (what ^ ": transformed run out of fuel")
      else if got <> baseline then
        Fail (Printf.sprintf "%s changed behaviour: %s -> %s" what baseline got)
      else Pass)

let opt_against (passes : (string * (modul -> unit)) list) (m : modul) : verdict
    =
  let baseline, fuel_out = behaviour m in
  if fuel_out then Skip "baseline run out of fuel"
  else if
    String.length baseline >= 7 && String.sub baseline 0 7 = "trapped"
    (* a trapping baseline is already degenerate (the generator never
       produces one; the reducer can) — nothing to preserve *)
  then Skip ("baseline " ^ baseline)
  else
    let rec go = function
      | [] -> Pass
      | (what, transform) :: rest -> (
        match check_transform ~what transform baseline m with
        | Pass -> go rest
        | v -> v)
    in
    go passes

let opt_oracle =
  { o_name = "opt";
    o_descr = "-O0 vs every pass and the full pipelines";
    check =
      (fun m ->
        let passes =
          List.map
            (fun (p : Llvm_transforms.Pass.t) ->
              (p.Llvm_transforms.Pass.name,
               fun c -> ignore (Llvm_transforms.Pass.run_pass p c)))
            (List.filter
               (fun (p : Llvm_transforms.Pass.t) ->
                 (* analysis-only; prints findings to stderr *)
                 p.Llvm_transforms.Pass.name <> "lint")
               Llvm_transforms.Pipelines.all_passes)
          @ [ ("-O2", fun c -> Llvm_transforms.Pipelines.optimize_module ~level:2 c);
              ("-O3", fun c -> Llvm_transforms.Pipelines.optimize_module ~level:3 c)
            ]
        in
        opt_against passes m) }

(* -- the speculation oracle (the sixth check) ------------------------------- *)

(* Train a one-run profile by interpreting a clone with the call-target
   instrumentation on.  The clone preserves every function and block
   name, so the profile's keys apply to the original module.  [None]
   when the module cannot even be materialized. *)
let train_profile (m : modul) : Llvm_profile.Profile.t option =
  let t = clone m in
  match
    let e =
      Llvm_exec.Engine.create ~profiling:true Llvm_exec.Engine.Interp_tier t
    in
    (match find_func t "main" with
    | Some main ->
      ignore (Llvm_exec.Interp.run_function ~fuel e.Llvm_exec.Engine.mach main [])
    | None -> ());
    Llvm_exec.Engine.profile e
  with
  | p -> Some p
  | exception _ -> None

(* Aggressive thresholds: any site whose hottest target took half the
   observed calls speculates.  Correctness must not depend on the
   thresholds (the guard protects arbitrary profiles), so the oracle
   uses the most promotion-happy setting. *)
let spec_min_count = 1
let spec_min_share = 0.5

let spec_oracle =
  { o_name = "spec";
    o_descr = "speculation on vs. off: identical behaviour and output";
    check =
      (fun m ->
        let baseline, fuel_out = behaviour m in
        if fuel_out then Skip "baseline run out of fuel"
        else if String.length baseline >= 7 && String.sub baseline 0 7 = "trapped"
        then Skip ("baseline " ^ baseline)
        else
          match train_profile m with
          | None -> Skip "training run failed to materialize"
          | Some p -> (
            let c = clone m in
            match
              Llvm_transforms.Pgo.optimize ~min_count:spec_min_count
                ~min_share:spec_min_share p c
            with
            | exception e -> Fail ("speculation raised " ^ Printexc.to_string e)
            | (_ : Llvm_transforms.Pgo.stats) -> (
              match verify_errors c with
              | Some e -> Fail ("speculated module invalid: " ^ e)
              | None ->
                (* every tier of the speculated module — hot/cold layout
                   driven by the same profile — must reproduce the
                   unspeculated behaviour, deopts included *)
                let rec tiers = function
                  | [] -> Pass
                  | kind :: rest -> (
                    let name = Llvm_exec.Engine.kind_name kind in
                    match observe ~profile:p kind c with
                    | exception e ->
                      Fail
                        (Printf.sprintf "%s tier on speculated module raised %s"
                           name (Printexc.to_string e))
                    | o ->
                      if o.ob_fuel_out then
                        Skip (name ^ ": speculated run out of fuel")
                      else if o.ob_status ^ "|" ^ o.ob_output <> baseline then
                        Fail
                          (Printf.sprintf
                             "%s: speculation changed behaviour: %s -> %s" name
                             baseline
                             (o.ob_status ^ "|" ^ o.ob_output))
                      else tiers rest)
                in
                tiers
                  [ Llvm_exec.Engine.Interp_tier; Llvm_exec.Engine.Bytecode_tier;
                    Llvm_exec.Engine.Tiered ]))) }

let all =
  [ verify_oracle; asm_oracle; bitcode_oracle; exec_oracle; opt_oracle;
    spec_oracle ]

let find name = List.find_opt (fun o -> o.o_name = name) all

let pass_oracle (p : Llvm_transforms.Pass.t) =
  { o_name = "pass:" ^ p.Llvm_transforms.Pass.name;
    o_descr = "behaviour preserved by " ^ p.Llvm_transforms.Pass.name;
    check =
      (fun m ->
        opt_against
          [ (p.Llvm_transforms.Pass.name,
             fun c -> ignore (Llvm_transforms.Pass.run_pass p c)) ]
          m) }

(* A deliberately wrong transformation: swapping sub operands negates
   every non-trivial difference.  It exists so the harness can prove it
   would catch a real miscompile — the reducer and bugpoint tests drive
   their oracles with it.  Registered (so bugpoint/opt can name it) but
   never part of any pipeline. *)
let injected_bug_pass =
  Llvm_transforms.Pass.make ~name:"inject-sub-swap"
    ~description:
      "DELIBERATELY WRONG: swap every sub's operands (harness self-test)"
    (fun m ->
      let changed = ref false in
      List.iter
        (fun f ->
          iter_instrs
            (fun i ->
              if i.iop = Sub && Array.length i.operands = 2 then begin
                let a = i.operands.(0) and b = i.operands.(1) in
                if not (value_equal a b) then begin
                  set_operand i 0 b;
                  set_operand i 1 a;
                  changed := true
                end
              end)
            f)
        m.mfuncs;
      !changed)

let () = Llvm_transforms.Pass.register injected_bug_pass

(* The speculation twin of [inject-sub-swap]: promote indirect sites to
   their profile-predicted targets with the guard ELIDED.  On any
   module where a site's target varies within the run, the promotion is
   a real miscompile the [pass:inject-spec-noguard] oracle must catch
   (and bugpoint must reduce). *)
let injected_spec_pass =
  Llvm_transforms.Pass.make ~name:"inject-spec-noguard"
    ~description:
      "DELIBERATELY WRONG: speculate indirect calls without guards (harness \
       self-test)"
    (fun m ->
      match train_profile m with
      | None -> false
      | Some p ->
        Llvm_transforms.Pgo.promote_unguarded ~min_count:spec_min_count
          ~min_share:spec_min_share p m
        > 0)

let () = Llvm_transforms.Pass.register injected_spec_pass

let of_spec (spec : string) : t option =
  match find spec with
  | Some o -> Some o
  | None ->
    if String.length spec > 5 && String.sub spec 0 5 = "pass:" then
      let pname = String.sub spec 5 (String.length spec - 5) in
      Option.map pass_oracle (Llvm_transforms.Pass.find pname)
    else None
