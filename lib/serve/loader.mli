(** The shared module loader: one place that reads inputs, sniffs
    textual IR vs bitcode, and formats load errors.  Used by every
    command-line tool (via [Tool_common]) and by the daemon for request
    payloads, so all consumers agree on behaviour and error messages. *)

val read_file : string -> string

val write_file : string -> string -> unit

type source = Bitcode | Asm

(** Classify a byte string by the bitcode magic. *)
val sniff : string -> source

(** Decode or parse [data]; [name] labels error messages (for bitcode
    ["name: malformed bitcode: ..."], for assembly ["name:line: ..."]). *)
val of_bytes : name:string -> string -> (Llvm_ir.Ir.modul, string) result

(** Read a file and load it through the same match as {!of_bytes}:
    errors carry the full path, a textual module is named by the
    path's basename.  Unreadable files report the [Sys_error] message
    (which embeds the path). *)
val of_file : string -> (Llvm_ir.Ir.modul, string) result
