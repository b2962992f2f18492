(** Profile-guided speculative optimization (paper sections 3.5 / 4.1).

    Driven by an aggregate fleet profile ({!Llvm_profile.Profile}):
    indirect call/invoke sites dominated by one observed target are
    rewritten into a guarded direct call with a deopt arm that
    re-executes the original indirect call behind the [llvm_deopt]
    runtime hook, which counts the failed guard.
    Sound for any profile, stale or adversarial: the guard compares the
    live function pointer against the prediction.

    [promote_unguarded] elides the guard — the deliberately wrong
    variant behind the fuzz harness's [inject-spec-noguard] self-test. *)

type stats = {
  promoted : int;  (** sites rewritten to guarded direct calls *)
  unguarded : int;  (** sites rewritten without a guard (self-test only) *)
  inlined : int;
  deleted : int;
}

val default_min_count : int

val default_min_share : float

(** The [void llvm_deopt(void)] declaration, added on demand. *)
val deopt_decl : Llvm_ir.Ir.modul -> Llvm_ir.Ir.func

(** Rewrite every indirect site whose profile shows at least
    [min_count] calls with one target taking at least [min_share] of
    them.  Returns the number of sites promoted. *)
val promote :
  ?min_count:int ->
  ?min_share:float ->
  Llvm_profile.Profile.t ->
  Llvm_ir.Ir.modul ->
  int

(** Same site selection, but a bare direct call: no guard, no
    fallback.  DELIBERATELY WRONG on any run whose targets differ from
    the profile's prediction — the harness self-test. *)
val promote_unguarded :
  ?min_count:int ->
  ?min_share:float ->
  Llvm_profile.Profile.t ->
  Llvm_ir.Ir.modul ->
  int

(** The aggregate-driven pipeline: speculative promotion, then
    profile-guided inlining ({!Inline.run} with the same profile). *)
val optimize :
  ?min_count:int ->
  ?min_share:float ->
  ?inline_threshold:int ->
  Llvm_profile.Profile.t ->
  Llvm_ir.Ir.modul ->
  stats
