(* The one module loader.

   Every consumer of serialized modules — the command-line tools via
   Tool_common, the daemon for request payloads, tests — goes through
   this sniffing loader, so ".ll vs .bc" detection and the error-message
   format for unreadable inputs live in exactly one place. *)

let read_file (path : string) : string =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file (path : string) (contents : string) : unit =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

type source = Bitcode | Asm

(* Bitcode images start with the magic the encoder writes; anything
   else is treated as textual IR. *)
let sniff (data : string) : source =
  if String.length data >= 4 && String.sub data 0 4 = "LLVM" then Bitcode
  else Asm

(* The one sniff/decode/parse match.  [label] prefixes error messages;
   [name] names a parsed textual module (bitcode carries its own). *)
let load ~(label : string) ~(name : string) (data : string) :
    (Llvm_ir.Ir.modul, string) result =
  match sniff data with
  | Bitcode -> (
    try Ok (Llvm_bitcode.Decoder.decode data)
    with Llvm_bitcode.Decoder.Malformed msg ->
      Error (Fmt.str "%s: malformed bitcode: %s" label msg))
  | Asm -> (
    try Ok (Llvm_asm.Parser.parse_module ~name data) with
    | Llvm_asm.Parser.Parse_error (msg, line)
    | Llvm_asm.Lexer.Lex_error (msg, line) ->
      Error (Fmt.str "%s:%d: %s" label line msg))

let of_bytes ~(name : string) (data : string) :
    (Llvm_ir.Ir.modul, string) result =
  load ~label:name ~name data

(* Errors carry the full path while the module keeps its conventional
   basename name. *)
let of_file (path : string) : (Llvm_ir.Ir.modul, string) result =
  match read_file path with
  | exception Sys_error e -> Error e
  | data -> load ~label:path ~name:(Filename.basename path) data
