(** The compilation service: request handling, the sharded
    content-addressed pass-result cache, link-time IPO run once per
    library set, and the translation-validation gate.  The daemon
    ({!Daemon}) is a socket loop over [handle]; tests and bench call it
    directly. *)

type config = {
  shards : int;
  shard_bytes : int;
  validate : bool;
      (** validate every compile/link witness, as if each request set
          its validate flag *)
  validate_fuel : int;  (** interpreter fuel for witness replays *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t

val cache : t -> Cache.t
val hit_rate : t -> float
val requests : t -> int
val validation_rejects : t -> int

(** Requests answered [Timed_out] so far. *)
val timed_out : t -> int

(** {1 The payload index}

    Maps the MD5 of a compile, run or lint payload's raw bytes to the
    canonical digest its load computed, so a repeated payload builds
    its cache key without being loaded, verified or re-encoded.  Only
    payloads that loaded and verified are indexed; the index holds no
    payloads or modules and is cleared when it reaches [index_cap]. *)

val index_cap : int

(** Payloads indexed now. *)
val index_entries : t -> int

(** Requests (and probes) whose key came from the index. *)
val index_hits : t -> int

(** Handle one request.  Records latency and counters; never raises on
    malformed payloads (returns [Failed]).  A request whose
    [deadline_ms] budget expires at a pass boundary is answered
    [Timed_out]; enforcement is cooperative (single passes run to
    completion), so the daemon backs it with a hard worker kill. *)
val handle : t -> Protocol.request -> Protocol.response

(** [List.map (handle t)]: each request answered on its own, in order.
    Link-time IPO still runs once per library set, through the cache.
    Kept for the e2ebench serve workload, which calls it. *)
val handle_batch : t -> Protocol.request list -> Protocol.response list

(** {1 Cache probing}

    With forked workers, the daemon keeps a "front" server whose cache
    spans workers: it probes before dispatching and installs worker
    results after. *)

type probe =
  | Hit of Protocol.response
      (** answered from the front cache, no worker involved — the only
          service available in degraded (circuit-open) mode *)
  | Miss of { key : string; route : string option }
      (** not cached: dispatch to a worker, then {!install} its result
          under [key].  [route] is an affinity hint — requests sharing
          it should go to the same worker (link-time IPO per library
          set, content-digest locality for compiles). *)
  | Uncached of { route : string option }
      (** never served from the front cache (Run — execution happens in
          a worker — and control requests), or a request [handle] would
          answer [Failed] before any lookup: a payload that does not
          load or verify, or a link with no apps *)

(** Makes the same cache key as {!handle} for every request.  Never
    raises: a probe failure degrades to [Uncached]. *)
val probe : t -> Protocol.request -> probe

(** Install a worker-computed [Served] payload under [key] (no-op for
    error responses). *)
val install : t -> key:string -> Protocol.response -> unit

(** The payload of a [Stats] response: per-shard hit rates, evictions,
    occupancy, request counters, and the latency histogram summary.
    [extra] fields (raw JSON values) are spliced in at top level — the
    daemon adds its supervision state under ["daemon"]. *)
val stats_json : ?extra:(string * string) list -> t -> string
