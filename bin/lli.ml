(* lli: the execution engine — directly execute a module's main function
   (paper section 3.4), optionally collecting a block-execution profile
   (section 3.5).  --engine picks the tier: the tree-walking
   interpreter, or bytecode compiled on each function's first call
   (bytecode, and the default tiered, which is the same policy).
   --emit-profile persists the run's profile in the binary .llpf format
   (the per-run artifact the fleet aggregation of section 4.1 merges);
   --use-profile feeds a saved aggregate back in for hot/cold bytecode
   layout. *)

open Cmdliner
open Llvm_exec

let run input fuel profile emit_profile use_profile engine =
  let m = Tool_common.load_module input in
  Tool_common.verify_or_die m;
  let aggregate =
    match use_profile with
    | None -> None
    | Some path -> (
      try Some (Llvm_profile.Profile.load path)
      with
      | Llvm_profile.Profile.Corrupt why ->
        Tool_common.fail "%s: corrupt profile: %s" path why
      | Sys_error why -> Tool_common.fail "%s" why)
  in
  let e =
    try
      Some
        (Engine.create
           ~profiling:(profile || emit_profile <> None)
           ?profile:aggregate engine m)
    with Memory.Trap msg ->
      prerr_endline ("trap: " ^ msg);
      None
  in
  match e with
  | None -> exit 121
  | Some e ->
    let r = Interp.run_loaded ~fuel e.Engine.mach in
    print_string r.Interp.output;
    Fmt.pr "@.; executed %d instructions@." r.Interp.instructions;
    let run_profile = lazy (Engine.profile e) in
    (match emit_profile with
    | None -> ()
    | Some path ->
      let p = Lazy.force run_profile in
      Llvm_profile.Profile.save path p;
      Fmt.pr "; profile: %a -> %s@." Llvm_profile.Profile.pp p path);
    if profile then begin
      Fmt.pr "; hottest functions:@.";
      let hot = Llvm_profile.Profile.hot_functions (Lazy.force run_profile) m in
      List.iteri
        (fun k (name, count) ->
          if k < 10 then Fmt.pr ";   %-24s %8d entries@." name count)
        hot;
      match Engine.promotions e with
      | [] -> ()
      | fs -> Fmt.pr "; compiled to bytecode: %s@." (String.concat ", " fs)
    end;
    (match r.Interp.status with
    | `Unwound -> prerr_endline "uncaught exception: program unwound out of main"
    | `Trapped msg -> prerr_endline ("trap: " ^ msg)
    | `Returned _ | `Exited _ -> ());
    exit (Interp.exit_code r.Interp.status)

let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT")
let fuel =
  Arg.(value & opt int 50_000_000 & info [ "fuel" ] ~docv:"N"
         ~doc:"instruction budget before declaring an infinite loop")
let profile = Arg.(value & flag & info [ "profile" ])

let emit_profile =
  Arg.(value & opt (some string) None
       & info [ "emit-profile" ] ~docv:"FILE"
           ~doc:"write the run's block/call-target profile to $(docv) in \
                 the binary .llpf format")

let use_profile =
  Arg.(value & opt (some file) None
       & info [ "use-profile" ] ~docv:"FILE"
           ~doc:"load an aggregate .llpf profile and lay out bytecode \
                 blocks hot-first under it")

let engine =
  let kinds =
    [ ("interp", Engine.Interp_tier); ("bytecode", Engine.Bytecode_tier);
      ("tiered", Engine.Tiered) ]
  in
  Arg.(value & opt (enum kinds) Engine.Tiered
       & info [ "engine" ] ~docv:"TIER"
           ~doc:"execution tier: $(b,interp), $(b,bytecode) or $(b,tiered)")

let cmd =
  Cmd.v
    (Cmd.info "lli" ~doc:"LLVM execution engine (interpreter or first-call bytecode)")
    Term.(const run $ input $ fuel $ profile $ emit_profile $ use_profile
          $ engine)

let () = exit (Cmd.eval cmd)
