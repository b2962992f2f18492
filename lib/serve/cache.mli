(** Sharded, byte-budgeted LRU cache mapping content-addressed keys
    (module digest × pipeline spec, built by {!Server}) to opaque byte
    values (optimized bitcode, lint reports).

    Shard assignment uses an internal FNV-1a hash of the key, so it is
    stable across processes and OCaml versions; each shard evicts
    least-recently-used entries when a put pushes it over its byte
    budget.  Values larger than a whole shard budget are never
    admitted.

    Every entry carries an MD5 of its value, verified on each hit: a
    corrupted entry is dropped (counted in [s_corrupt]) and reported
    as a miss, so the caller recomputes instead of serving garbage. *)

type t

val default_shards : int
val default_shard_bytes : int

val create : ?shards:int -> ?shard_bytes:int -> unit -> t

(** The shard a key maps to (deterministic). *)
val shard_of : t -> string -> int

(** Lookup; a hit refreshes the entry's recency. *)
val find : t -> string -> string option

(** Insert or refresh, then evict LRU entries past the shard budget. *)
val put : t -> string -> string -> unit

(** Drop an entry if present (no-op otherwise). *)
val remove : t -> string -> unit

type shard_stats = {
  s_entries : int;
  s_bytes : int;
  s_budget : int;
  s_hits : int;
  s_misses : int;
  s_puts : int;
  s_evictions : int;
  s_oversize : int;
  s_corrupt : int;  (** integrity failures detected (and self-healed) *)
}

val shard_stats : t -> shard_stats array

val hits : t -> int

(** Total integrity failures detected across shards. *)
val corrupt : t -> int

val misses : t -> int
val evictions : t -> int
val entries : t -> int
val bytes : t -> int

(** hits / (hits + misses), 0 when idle. *)
val hit_rate : t -> float

(** One shard's keys, most-recently-used first (tests). *)
val keys_mru_first : t -> int -> string list
