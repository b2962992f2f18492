(** Bitcode encoder (paper sections 2.5 and 4.1.3): in-memory module to
    compact binary image.  Most instructions occupy a single 32-bit
    word; the rest use a wide escape.  See {!Format} for the layout. *)

type stats = {
  mutable one_word_instrs : int;
  mutable wide_instrs : int;
  mutable pool_entries : int;
      (** constants, globals and functions in the per-function operand
          pools, summed over all function bodies *)
  mutable total_bytes : int;
}

(** Encode a module.  [strip:true] drops local symbol names (argument,
    instruction and block names), like a stripped executable; the code
    itself is unchanged. *)
val encode : ?strip:bool -> Llvm_ir.Ir.modul -> string * stats
