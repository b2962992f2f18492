(** Standard pass pipelines.  [per_module] approximates the static
    per-translation-unit optimizer (paper section 3.2);
    [link_time_ipo] is the aggressive whole-program pipeline the linker
    runs (section 3.3). *)

(** Every pass, registered in {!Pass}'s registry on load. *)
val all_passes : Pass.t list

val per_function_cleanup : Pass.t list
val per_module : Pass.t list
val link_time_ipo : Pass.t list

(** Whether [l] is an optimization level, 0..3: the levels {!passes}
    defines. *)
val is_level : int -> bool

(** The passes of optimization level [level]: 0 = none, 1 = cleanup,
    2 = per-module, 3 = per-module followed by the link-time
    interprocedural pipeline.
    @raise Invalid_argument outside 0..3. *)
val passes : level:int -> Pass.t list

(** Run [passes ~level] (default 2) through {!Pass.run_sequence}.
    @raise Invalid_argument outside 0..3. *)
val optimize_module : ?level:int -> Llvm_ir.Ir.modul -> unit
