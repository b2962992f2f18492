(** The pass manager (paper section 3.2: optimizations "are built into
    libraries, making it easy for front-ends to use them").  A pass is a
    named module transformation reporting whether it changed anything;
    the manager runs sequences through one runner with hooks, and keeps
    a registry for the opt tool. *)

type t = {
  name : string;
  description : string;
  run : Llvm_ir.Ir.modul -> bool;  (** returns [true] when anything changed *)
}

(** Callbacks fired around every pass of a {!run_sequence}: [before]
    just before the pass runs, [after] just after, with its changed
    flag.  An exception raised by a hook stops the run there: a raising
    [before] means the pass never runs. *)
type hook = {
  before : t -> Llvm_ir.Ir.modul -> unit;
  after : t -> Llvm_ir.Ir.modul -> bool -> unit;
}

val make :
  name:string -> description:string -> (Llvm_ir.Ir.modul -> bool) -> t

(** Lift a per-function transformation over every defined function. *)
val function_pass :
  name:string -> description:string -> (Llvm_ir.Ir.func -> bool) -> t

val run_pass : t -> Llvm_ir.Ir.modul -> bool

(** The one pipeline runner: run [passes] in order, firing every hook
    (in list order) around each.  Returns whether any pass changed the
    module.  With no hooks it allocates nothing per pass. *)
val run_sequence : ?hooks:hook list -> t list -> Llvm_ir.Ir.modul -> bool

(** {1 Registry (used by the opt tool)} *)

val register : t -> unit
val find : string -> t option
val all : unit -> t list
