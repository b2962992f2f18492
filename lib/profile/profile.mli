(** Persistent execution profiles (paper section 3.5).

    A profile maps stable {e names} — not process-local ids — to
    saturating weights, so profiles survive the run that produced them:
    written to disk, shipped home from the field, and merged across
    thousands of heterogeneous runs into one aggregate that drives
    reoptimization (section 4.1's lifelong loop).

    Keys: a block is ["<function>\t<block>"]; a call site is
    ["<function>\t<block>\t<k>"] for the k-th call/invoke instruction
    of the block; targets are callee function names.

    Merging saturates at {!cap} instead of wrapping, making it
    commutative and associative; the optional weight multiplies the
    source first, so a fleet aggregate is independent of arrival
    order. *)

type t = {
  mutable runs : int;  (** runs aggregated into this profile *)
  blocks : (string, int) Hashtbl.t;
  calls : (string, (string, int) Hashtbl.t) Hashtbl.t;
}

(** Saturation bound on every weight. *)
val cap : int

val empty : unit -> t

val block_key : func:string -> block:string -> string
val site_key : func:string -> block:string -> index:int -> string

(** [min cap (a + b)] for non-negative weights. *)
val sat_add : int -> int -> int

(** Convert one instrumented run's id-keyed tables
    ([Interp.machine.block_counts] / [call_counts]) to a one-run,
    name-keyed profile by walking the module it executed. *)
val of_run :
  Llvm_ir.Ir.modul ->
  block_counts:(int, int) Hashtbl.t ->
  call_counts:(int, (int, int) Hashtbl.t) Hashtbl.t ->
  t

(** [merge ?weight dst src] folds [weight] (default 1) simulated
    occurrences of [src] into [dst], saturating at {!cap}. *)
val merge : ?weight:int -> t -> t -> unit

(** Weight of a block; a miss retries with the last dot-suffix of the
    block name stripped ([.spec], [.deopt], [.cont], inliner clones),
    so a profile gathered on the original module still guides layout of
    its speculated/ transformed descendants.  0 when unknown. *)
val block_weight : t -> func:string -> block:string -> int

(** Entry-block weight of a function (0 for declarations). *)
val func_weight : t -> Llvm_ir.Ir.func -> int

(** [m]'s functions with a non-zero {!func_weight}, hottest first
    (count descending, then name). *)
val hot_functions : t -> Llvm_ir.Ir.modul -> (string * int) list

(** Observed callees of a call site, hottest first (deterministic:
    count descending, then name). *)
val call_targets :
  t -> func:string -> block:string -> index:int -> (string * int) list

val runs : t -> int
val block_entries : t -> int
val call_sites : t -> int
val total_weight : t -> int

(** Total observed indirect calls, saturating: the sum of every site's
    target counts. *)
val total_calls : t -> int

(** Structural equality (for the merge property tests). *)
val equal : t -> t -> bool

(** {1 Binary format}

    ["LLPF"], a version byte, then length-prefixed sections with
    little-endian 64-bit counts; sections are sorted so equal profiles
    serialize identically. *)

exception Corrupt of string

val to_bytes : t -> string

(** @raise Corrupt on malformed input. *)
val of_bytes : string -> t

val save : string -> t -> unit

(** @raise Corrupt on malformed input. *)
val load : string -> t

val pp : Format.formatter -> t -> unit
