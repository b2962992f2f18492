(** The forked worker pool: pipeline execution isolated from the
    daemon's accept loop.

    Each worker is a forked child running its own {!Server.t} and
    speaking the wire protocol over a socketpair.  A crash costs the
    request the worker was carrying and a respawn — never the daemon; a
    worker that blows past a request's hard deadline is SIGKILLed and
    respawned.  Requests with the same [route] affinity hint land on
    the same slot, so per-worker caches still hit and link-time IPO
    runs once per library set within a slot. *)

type t

type outcome =
  | Resp of Protocol.response
  | Crashed  (** the worker died mid-request (it has been respawned) *)
  | Hard_timeout
      (** no answer by [hard]; the worker was killed and respawned *)

(** [create ?n ?faults ?on_child config] forks [n] workers (min 1).
    Each child installs [faults] (arming crash injection for its slot
    and generation), calls [on_child] — the daemon closes its listening
    and connection fds there — and serves frames until its pipe
    closes. *)
val create :
  ?n:int -> ?faults:Faults.plan -> ?on_child:(unit -> unit) ->
  Server.config -> t

val size : t -> int

(** Times any slot has been respawned (crashes + hard timeouts). *)
val restarts : t -> int

(** [dispatch t ?hard ~route req] sends [req] to the slot chosen by
    [route] (round-robin when [None]) and waits for its answer.
    [hard] is an absolute instant on {!Protocol.now}: past it the worker is
    killed.  Give it a grace interval beyond the request's own
    [deadline_ms] so the worker's cooperative [Timed_out] answer wins
    whenever it can. *)
val dispatch :
  t -> ?hard:float -> route:string option -> Protocol.request -> outcome

(** SIGTERM every worker and reap them. *)
val shutdown : t -> unit
