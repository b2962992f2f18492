(* The multi-oracle differential harness.

   Each oracle checks one consistency claim across the IR's forms and
   tiers.  They are judges, not transformers: anything that needs to
   rewrite the module (the optimization oracle) works on a structural
   clone, built by hand rather than through the printers or codecs so
   that a serializer bug cannot corrupt an unrelated oracle's input. *)

open Llvm_ir
open Ir
open Llvm_exec

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

(* One run of [main] under [kind]; the tier checks turn profiling on to
   compare block profiles, the behaviour-only checks leave it off. *)
let run ?profiling ?profile kind m = Engine.run_main ~fuel ?profiling ?profile kind m

(* Behaviour (status + output) as the Fail and Skip texts print it. *)
let describe (r : Interp.run_result) = Interp.status_to_string r.status ^ "|" ^ r.output

(* The module may have been transformed, so only behaviour compares:
   instruction counts and profiles are not comparable. *)
let same_behaviour a b = Interp.differences ~fields:[ Status; Output ] a b = []

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
    o_descr = "interpreter and bytecode execution are identical";
    check =
      (fun m ->
        match run ~profiling:true Engine.Interp_tier m with
        | exception e -> Fail ("interpreter raised " ^ Printexc.to_string e)
        | r0, _ when Interp.out_of_fuel r0 -> Skip "reference run out of fuel"
        | ({ status = `Trapped _ as s; _ }, _) ->
          Fail ("generated program trapped: " ^ Interp.status_to_string s)
        | (r0, _) as reference -> (
          let fail fmt = Printf.ksprintf (fun why -> Fail why) fmt in
          match run ~profiling:true Engine.Bytecode_tier m with
          | exception e -> fail "bytecode tier raised %s" (Printexc.to_string e)
          | (r, _) as got -> (
            match Interp.differences reference got with
            | [] -> Pass
            | Status :: _ ->
              fail "bytecode status %s != interp %s"
                (Interp.status_to_string r.status)
                (Interp.status_to_string r0.status)
            | Output :: _ -> fail "bytecode output differs"
            | Instructions :: _ ->
              fail "bytecode executed %d instrs, interp %d" r.instructions
                r0.instructions
            | Profile :: _ -> fail "bytecode block profile differs"))) }

let check_transform ~what (transform : modul -> unit) baseline (m : modul) :
    verdict =
  let c = clone m in
  match transform c with
  | exception e -> Fail (what ^ " raised " ^ Printexc.to_string e)
  | () -> (
    match verify_errors c with
    | Some e -> Fail (what ^ " broke the module: " ^ e)
    | None -> (
      match run Engine.Interp_tier c with
      | r, _ when Interp.out_of_fuel r -> Skip (what ^ ": transformed run out of fuel")
      | got when same_behaviour baseline got -> Pass
      | r, _ ->
        Fail
          (Printf.sprintf "%s changed behaviour: %s -> %s" what
             (describe (fst baseline)) (describe r))))

(* The -O0 baseline every behaviour check compares against, or why the
   module cannot be judged: out of fuel, or a trapping baseline, which
   is already degenerate (the generator never produces one; the
   reducer can) — nothing to preserve. *)
let baseline (m : modul) =
  match run Engine.Interp_tier m with
  | r, _ when Interp.out_of_fuel r -> Error (Skip "baseline run out of fuel")
  | ({ status = `Trapped _; _ } as r), _ -> Error (Skip ("baseline " ^ describe r))
  | b -> Ok b

let opt_against (passes : (string * (modul -> unit)) list) (m : modul) : verdict
    =
  match baseline m with
  | Error v -> v
  | Ok b ->
    let rec go = function
      | [] -> Pass
      | (what, transform) :: rest -> (
        match check_transform ~what transform b m with
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
    let e = Engine.create ~profiling:true Engine.Interp_tier t in
    ignore (Interp.run_loaded ~fuel e.Engine.mach);
    Engine.profile e
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
        match baseline m with
        | Error v -> v
        | Ok b -> (
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
                (* both tiers of the speculated module — hot/cold layout
                   driven by the same profile — must reproduce the
                   unspeculated behaviour, deopts included *)
                let tier kind =
                  let name = Engine.kind_name kind in
                  match run ~profile:p kind c with
                  | exception e ->
                    Some
                      (Fail
                         (Printf.sprintf "%s tier on speculated module raised %s"
                            name (Printexc.to_string e)))
                  | r, _ when Interp.out_of_fuel r ->
                    Some (Skip (name ^ ": speculated run out of fuel"))
                  | got when same_behaviour b got -> None
                  | r, _ ->
                    Some
                      (Fail
                         (Printf.sprintf
                            "%s: speculation changed behaviour: %s -> %s" name
                            (describe (fst b)) (describe r)))
                in
                Option.value ~default:Pass
                  (List.find_map tier
                     [ Engine.Interp_tier; Engine.Bytecode_tier ]))))) }

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
