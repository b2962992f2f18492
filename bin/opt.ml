(* opt: run optimization passes over a module.

   Passes are named as in the registry (mem2reg, scalarrepl, constprop,
   dce, adce, simplifycfg, gvn, reassociate, inline, dge, dae,
   tailrecelim, prune-eh); -O0..-O3 select the standard pipelines.
   Every pipeline, -O and -p alike, goes through the one pass runner;
   --time-passes is a timing hook on it.
   --profile-data loads a .llpf aggregate (lli --emit-profile, merged
   across runs) and --pgo reoptimizes under it: speculative indirect-
   call promotion with deopt guards plus profile-guided inlining. *)

open Cmdliner
module Pass = Llvm_transforms.Pass

let list_passes () =
  List.iter (fun p -> Fmt.pr "%-14s %s@." p.Pass.name p.Pass.description) (Pass.all ())

(* One line per pass: name, changed flag and monotonic wall time. *)
let timing_hook () : Pass.hook =
  let t0 = ref 0L in
  { before = (fun _ _ -> t0 := Monotonic_clock.now ());
    after =
      (fun p _ changed ->
        let ns = Int64.sub (Monotonic_clock.now ()) !t0 in
        Fmt.pr "%-14s %s in %.4fs@." p.Pass.name
          (if changed then "changed" else "no change")
          (Int64.to_float ns /. 1e9)) }

let run input output passes level profile_data pgo stats lint list_only =
  if list_only then list_passes ()
  else begin
    let input = match input with Some i -> i | None -> Tool_common.fail "no input file" in
    let named =
      List.map
        (fun name ->
          match Pass.find name with
          | Some p -> p
          | None -> Tool_common.fail "unknown pass %s (try --list)" name)
        passes
    in
    let hooks = if stats then [ timing_hook () ] else [] in
    let m = Tool_common.load_module input in
    Tool_common.verify_or_die m;
    (match level with
    | Some level ->
      ignore
        (Pass.run_sequence ~hooks (Llvm_transforms.Pipelines.passes ~level) m)
    | None -> ());
    (match (pgo, profile_data) with
    | false, _ -> ()
    | true, None -> Tool_common.fail "--pgo needs --profile-data FILE"
    | true, Some path ->
      let p =
        try Llvm_profile.Profile.load path
        with
        | Llvm_profile.Profile.Corrupt why ->
          Tool_common.fail "%s: corrupt profile: %s" path why
        | Sys_error why -> Tool_common.fail "%s" why
      in
      let s = Llvm_transforms.Pgo.optimize p m in
      if stats then
        Fmt.pr "pgo: %d sites promoted, %d calls inlined, %d functions \
                deleted@."
          s.Llvm_transforms.Pgo.promoted s.Llvm_transforms.Pgo.inlined
          s.Llvm_transforms.Pgo.deleted);
    ignore (Pass.run_sequence ~hooks named m);
    Tool_common.verify_or_die m;
    let lint_failed =
      lint
      &&
      let diags = Llvm_analysis.Lint.run m in
      List.iter (fun d -> Fmt.epr "%a@." Llvm_analysis.Lint.pp_diag d) diags;
      Llvm_analysis.Lint.has_errors diags
    in
    let text = Llvm_ir.Printer.module_to_string m in
    (match output with
    | Some o ->
      if Filename.check_suffix o ".bc" then
        Tool_common.write_file o (fst (Llvm_bitcode.Encoder.encode m))
      else Tool_common.write_file o text
    | None -> print_string text);
    if lint_failed then exit 1
  end

let input = Arg.(value & pos 0 (some file) None & info [] ~docv:"INPUT")
let output = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUTPUT")
let passes =
  Arg.(value & opt_all string [] & info [ "p"; "pass" ] ~docv:"PASS")
let level =
  Arg.(value & opt (some Tool_common.opt_level) None & info [ "O" ] ~docv:"LEVEL"
         ~doc:"run the standard pipeline at the given level (0-3)")
let profile_data =
  Arg.(value & opt (some file) None
       & info [ "profile-data" ] ~docv:"FILE"
           ~doc:"aggregate execution profile in the binary .llpf format")

let pgo =
  Arg.(value & flag
       & info [ "pgo" ]
           ~doc:"reoptimize under $(b,--profile-data): guarded speculative \
                 promotion of hot indirect calls plus profile-guided \
                 inlining")

let stats =
  Arg.(value & flag & info [ "time-passes" ]
         ~doc:"print each pass's name, changed flag and wall time, for \
               $(b,-O) pipelines and $(b,-p) passes alike")
let lint =
  Arg.(value & flag & info [ "lint" ]
         ~doc:"run the memory-safety lint after the passes; exit non-zero \
               on error-severity findings")
let list_only = Arg.(value & flag & info [ "list" ] ~doc:"list available passes")

let cmd =
  Cmd.v
    (Cmd.info "opt" ~doc:"LLVM optimizer driver")
    Term.(const run $ input $ output $ passes $ level $ profile_data $ pgo
          $ stats $ lint $ list_only)

let () = exit (Cmd.eval cmd)
