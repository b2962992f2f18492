(* minicc: the MiniC front-end — compile C-like source to LLVM IR
   (paper section 3.2: static compilers emit LLVM code). *)

open Cmdliner

let run input output level =
  let src = Tool_common.read_file input in
  let m =
    try
      Llvm_minic.Codegen.compile_string
        ~name:(Filename.remove_extension (Filename.basename input))
        src
    with
    | Llvm_minic.Clexer.Error (msg, line) -> Tool_common.fail "%s:%d: %s" input line msg
    | Llvm_minic.Codegen.Error msg -> Tool_common.fail "%s: %s" input msg
  in
  Tool_common.verify_or_die m;
  Llvm_transforms.Pipelines.optimize_module ~level m;
  Tool_common.verify_or_die m;
  let text = Llvm_ir.Printer.module_to_string m in
  match output with
  | Some o ->
    if Filename.check_suffix o ".bc" then
      Tool_common.write_file o (fst (Llvm_bitcode.Encoder.encode m))
    else Tool_common.write_file o text
  | None -> print_string text

let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT.c")
let output = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUTPUT")
let level = Arg.(value & opt Tool_common.opt_level 0 & info [ "O" ] ~docv:"LEVEL")

let cmd =
  Cmd.v
    (Cmd.info "minicc" ~doc:"MiniC front-end: compile C-like source to LLVM IR")
    Term.(const run $ input $ output $ level)

let () = exit (Cmd.eval cmd)
