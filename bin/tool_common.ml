(* Helpers shared by the command-line tools.

   Input reading and .ll-vs-.bc sniffing live in Llvm_serve.Loader —
   the same loader the llvmd daemon uses for request payloads — so
   every consumer agrees on behaviour and error-message format. *)

let fail fmt = Fmt.kstr (fun s -> prerr_endline s; exit 1) fmt

(* Read a file or die with the loader's error format (the Sys_error
   message, which embeds the path). *)
let read_file (path : string) : string =
  try Llvm_serve.Loader.read_file path with Sys_error e -> fail "%s" e

let write_file = Llvm_serve.Loader.write_file

(* Load a module from either textual assembly (.ll) or bitcode (.bc),
   sniffing the magic bytes. *)
let load_module (path : string) : Llvm_ir.Ir.modul =
  match Llvm_serve.Loader.of_file path with
  | Ok m -> m
  | Error msg -> fail "%s" msg

(* The -O LEVEL argument: the levels [Pipelines.passes] defines.  Any
   other value is a usage error. *)
let opt_level : int Cmdliner.Arg.conv =
  let parse s =
    match int_of_string_opt s with
    | Some l when Llvm_transforms.Pipelines.is_level l -> Ok l
    | _ -> Error (`Msg (Fmt.str "invalid optimization level %S, expected 0..3" s))
  in
  Cmdliner.Arg.conv (parse, Fmt.int)

let verify_or_die (m : Llvm_ir.Ir.modul) : unit =
  match Llvm_ir.Verify.verify_module m with
  | [] -> ()
  | errs ->
    List.iter (fun e -> Fmt.epr "%a@." Llvm_ir.Verify.pp_error e) errs;
    fail "module verification failed"
