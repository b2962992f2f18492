(* The benchmark's one timing loop and its one result emitter.

   Every workload runs the same shape: set-up repeated a few times (the
   median is [setup_s]), then a time-bounded window of operations whose
   latencies are recorded one by one, on the monotonic clock.  The
   operations come in rounds: the same sequence of operations, doing the
   same work, over and over.  When tracing, the time of probes and
   replays is taken out of every operation's latency (see Trace). *)

(* The [i]-th of the cut points dividing sorted [a] into [n] equal
   groups, by the rule of Python's statistics.quantiles (its default,
   "exclusive" method), which also judges spreads across runs.  A term
   of weight 0 is skipped, so an infinite neighbour (a failed
   operation) does not turn the cut into nan. *)
let cut (a : float array) ~(i : int) ~(n : int) : float =
  let len = Array.length a in
  if len = 0 then nan
  else if len = 1 then a.(0)
  else
    let m = len + 1 in
    let j = max 1 (min (len - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    let term x w = if w = 0 then 0.0 else x *. float_of_int w in
    (term a.(j - 1) (n - delta) +. term a.(j) delta) /. float_of_int n

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median (xs : float list) : float = cut (sorted xs) ~i:1 ~n:2

(* Run [f] [reps] times, each as a "setup" root; returns every result
   and the median duration in seconds.  The count must not depend on the
   machine's speed: the results are held until the end and count in the
   peak memory. *)
let setup ?(reps = 5) (f : unit -> 'a) : 'a list * float =
  let runs = List.init reps (fun _ -> Trace.root "setup" f) in
  (List.map fst runs, median (List.map snd runs))

type window = {
  mutable start : int64;
  mutable lat : float array;  (* seconds per operation, first [n] valid *)
  mutable n : int;
  mutable failed : int;
  mutable rss_mb : float;
  mutable busy : float;  (* seconds inside [op], summed *)
  round : int;  (* operations in one round *)
}

let new_window ~(round : int) () =
  { start = Trace.now_ns (); lat = Array.make 1024 0.0; n = 0; failed = 0; rss_mb = nan;
    busy = 0.0; round }

let since (t0 : int64) : float = Int64.to_float (Int64.sub (Trace.now_ns ()) t0) *. 1e-9

(* One timed operation of [w], a trace root: returns [f]'s result and
   its duration in seconds, and adds the duration to [w.busy], which a
   traced run checks against the trace's own total.  An exception from
   [f] is re-raised once the duration is counted. *)
let op (w : window) (f : unit -> 'a) : 'a * float =
  let r, seconds = Trace.root "op" (fun () -> try Ok (f ()) with e -> Error e) in
  w.busy <- w.busy +. seconds;
  match r with Ok v -> (v, seconds) | Error e -> raise e

(* Record one operation: its latency and whether it succeeded.  A failed
   operation misses every latency limit, so it counts as infinitely
   slow. *)
let record (w : window) ~(ok : bool) (seconds : float) : unit =
  let seconds = if ok then seconds else infinity in
  if w.n = Array.length w.lat then w.lat <- Array.append w.lat (Array.make w.n 0.0);
  w.lat.(w.n) <- seconds;
  w.n <- w.n + 1;
  if not ok then w.failed <- w.failed + 1

(* High-water resident set size of a process, in MB. *)
let peak_rss_mb (pid : string) : float =
  let status = In_channel.with_open_text ("/proc/" ^ pid ^ "/status") In_channel.input_all in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb -> kb /. 1024.0)

(* Call [step] until [seconds] have passed, first untimed for [warmup]
   seconds.  Each step records the operations it performs, and ends on
   an operation boundary of the workload's round of [round] operations:
   the window's operation count [n] says which operation of the round
   comes next, from the first at the window's start.  The peak memory of
   process [pid] is read once [rss_after] operations are done (or at the
   end), so it does not grow with the number of operations a faster run
   completes.  When the measured window opens, the trace drops every
   warm-up operation. *)
let run ~(round : int) ~(warmup : float) ~(seconds : float) ~(pid : string) ~(rss_after : int)
    (step : window -> unit) : window =
  let loop w limit =
    w.start <- Trace.now_ns ();
    while w.n = 0 || since w.start < limit do
      step w;
      if Float.is_nan w.rss_mb && w.n >= rss_after then w.rss_mb <- peak_rss_mb pid
    done
  in
  if warmup > 0.0 then loop (new_window ~round ()) warmup;
  Trace.reset_ops ();
  let w = new_window ~round () in
  loop w seconds;
  if Float.is_nan w.rss_mb then w.rss_mb <- peak_rss_mb pid;
  w

(* Each operation of the round at its best: its fastest latency over the
   window's whole rounds.  Every round does the same work, and the
   machine can only add time to an operation, never take it away, so the
   fastest of its repetitions is the one least disturbed by whatever else
   the machine was doing.  An operation that failed in any round stays
   infinitely slow.  The operations after the last whole round are left
   out; a window shorter than a round is taken as it is. *)
let best (w : window) : float array =
  let rounds = w.n / w.round in
  if rounds = 0 then Array.sub w.lat 0 w.n
  else
    Array.init w.round (fun i ->
        let b = ref w.lat.(i) in
        for r = 1 to rounds - 1 do
          let x = w.lat.((r * w.round) + i) in
          b := if Float.is_finite !b && Float.is_finite x then Float.min !b x else infinity
        done;
        !b)

(* The end-to-end metrics every workload reports from its window: the
   median and 90th percentile of the round's best latencies, and the
   rate at which a round at those latencies completes operations. *)
let window_metrics (w : window) : (string * float) list =
  let b = best w in
  let a = sorted (Array.to_list b) in
  [ ("p50_ms", 1000.0 *. cut a ~i:1 ~n:2); ("p90_ms", 1000.0 *. cut a ~i:9 ~n:10);
    ("ops_per_s", float_of_int (Array.length b) /. Array.fold_left ( +. ) 0.0 b) ]

(* What a workload hands back: its set-up time, its window, whether
   every correctness check passed, and per-layer counts for the traced
   report. *)
type outcome = {
  setup_s : float;
  window : window;
  correct : bool;
  counts : (string * float) list;
}

(* -- Result ------------------------------------------------------------------ *)

(* The commit of the checkout, read from .git without running git;
   "unknown" outside a repository. *)
let commit () : string =
  let read f = String.trim (In_channel.with_open_text f In_channel.input_all) in
  try
    let head = read ".git/HEAD" in
    match String.split_on_char ' ' head with
    | [ "ref:"; ref_ ] -> (
      try read (Filename.concat ".git" ref_)
      with Sys_error _ ->
        let packed = String.split_on_char '\n' (read ".git/packed-refs") in
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ sha; r ] when r = ref_ -> Some sha
            | _ -> None)
          packed
        |> Option.value ~default:"unknown")
    | _ -> head
  with Sys_error _ -> "unknown"

type result = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (* name, value, unit *)
}

let metrics_json (r : result) : Json.t =
  Json.Obj
    (List.map
       (fun (name, v, unit_) ->
         (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit_) ]))
       r.metrics)

(* The last line of standard output, and (when [out] is given) one line
   appended to [out] with the run's parameters and environment. *)
let emit ?out (r : result) : unit =
  let core =
    [ ("correct", Json.Bool r.correct); ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed)); ("metrics", metrics_json r) ]
  in
  (match out with
  | None -> ()
  | Some path ->
    let env =
      Json.Obj
        [ ("commit", Json.Str (commit ())); ("ocaml", Json.Str Sys.ocaml_version);
          ("seed", Json.Num (float_of_int r.seed)) ]
    in
    let record =
      Json.Obj
        ([ ("workload", Json.Str r.workload); ("seconds", Json.Num r.seconds);
           ("trace", Json.Bool r.traced); ("env", env) ]
        @ core)
    in
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
    output_string oc (Json.to_string record ^ "\n");
    close_out oc);
  print_endline (Json.to_string (Json.Obj core))
