(* Bench-side spans around the calls into each layer of lib/, kept in
   memory and aggregated at exit into per-layer rows (self time and
   allocation) plus a Chrome trace-event file.

   A root span is one unit of work whose time the benchmark reports: a
   set-up repetition or a timed operation.  Layer spans nest inside
   roots.  Two kinds of span exist only to look inside a public call
   that hides its layers, and their wall time is removed from every
   enclosing span so that traced latencies stay comparable with
   untraced ones:
   - a probe repeats a hidden layer as a separate call on an identical
     input and is reported as a child row, outside the sum of rows;
   - an attributed span replays work that happened elsewhere (the
     daemon's request handling, replayed in process); its duration is
     charged to the enclosing span as a child, so that span's self time
     becomes the remainder (the socket transport).

   Switched off, every function here runs its argument and nothing
   else; callers make probes and replays only when [enabled]. *)

let enabled = ref false

let now_ns () : int64 = Monotonic_clock.now ()

type kind = Root | Layer | Probe | Attributed

type span = {
  name : string;
  kind : kind;
  phase : string;  (* of the enclosing root; "" outside any root *)
  start : int64;
  mutable stop : int64;
  mutable hidden : int64;  (* wall time of probes/attributed spans inside *)
  mutable children : int64;  (* time charged to child spans *)
  minor0 : float;
  major0 : float;
  mutable minor : float;
  mutable major : float;
  depth : int;
}

let finished : span list ref = ref []
let stack : span list ref = ref []

(* Gc.quick_stat, not Gc.counters: on OCaml 5.1 the latter, called this
   often, ends a long traced run in "allocation failure during minor GC". *)
let alloc () : float * float =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_words)

let open_span kind name : span =
  let phase, depth =
    match (kind, !stack) with
    | Root, _ -> (name, 0)
    | _, parent :: _ -> (parent.phase, parent.depth + 1)
    | _, [] -> ("", 0)
  in
  let minor0, major0 = alloc () in
  let s =
    { name; kind; phase; start = now_ns (); stop = 0L; hidden = 0L;
      children = 0L; minor0; major0; minor = 0.0; major = 0.0; depth }
  in
  stack := s :: !stack;
  s

let close_span (s : span) : unit =
  s.stop <- now_ns ();
  let minor1, major1 = alloc () in
  s.minor <- minor1 -. s.minor0;
  s.major <- major1 -. s.major0;
  stack := List.tl !stack;
  finished := s :: !finished;
  let wall = Int64.sub s.stop s.start in
  match (!stack, s.kind) with
  | [], _ -> ()
  | parent :: _, (Root | Layer) ->
    parent.hidden <- Int64.add parent.hidden s.hidden;
    parent.children <- Int64.add parent.children (Int64.sub wall s.hidden)
  | parent :: _, Probe -> parent.hidden <- Int64.add parent.hidden wall
  | parent :: _, Attributed ->
    parent.hidden <- Int64.add parent.hidden wall;
    parent.children <- Int64.add parent.children wall

let with_span kind name (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else
    let s = open_span kind name in
    Fun.protect ~finally:(fun () -> close_span s) f

(* A span's duration without the probes and replays inside it. *)
let effective (s : span) : float =
  Int64.to_float (Int64.sub (Int64.sub s.stop s.start) s.hidden) *. 1e-9

(* A layer: a call into one module of lib/. *)
let span name f = with_span Layer name f

(* A separate call, made only when tracing, that times a layer running
   hidden inside another call. *)
let probe name f = with_span Probe name f

(* Work replayed in process, only when tracing, and charged to the
   enclosing span. *)
let attributed name f = with_span Attributed name f

(* A root: one set-up repetition ([phase] "setup") or one timed
   operation ([phase] "op").  Returns the result and its duration in
   seconds, without the time of probes and attributed spans inside. *)
let root (phase : string) (f : unit -> 'a) : 'a * float =
  if not !enabled then begin
    let t0 = now_ns () in
    let v = f () in
    (v, Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9)
  end
  else
    let s = open_span Root phase in
    let v = Fun.protect ~finally:(fun () -> close_span s) f in
    (v, effective s)

(* Per-layer counts, kept whether or not spans are. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let count (name : string) (x : float) : unit =
  Hashtbl.replace counts name (x +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

let counted (name : string) : float = Option.value ~default:0.0 (Hashtbl.find_opt counts name)

(* Forget every operation so far, spans and counts, keeping set-up: the
   timing loop calls this when its window starts, so warm-up work never
   reaches the report. *)
let reset_ops () : unit =
  finished := List.filter (fun s -> s.phase <> "op") !finished;
  Hashtbl.reset counts

(* -- Aggregation ------------------------------------------------------------ *)

type row = {
  r_self : float;  (* seconds *)
  r_minor : float;  (* words, inclusive; top-level and attributed spans only *)
  r_major : float;
  r_child : bool;  (* a probe: outside the sum *)
}

type summary = {
  totals : (string * float) list;  (* phase -> seconds of its roots *)
  rows : ((string * string) * row) list;  (* (phase, name) -> row *)
}

let self_seconds (s : span) : float =
  let wall = Int64.sub s.stop s.start in
  let self =
    match s.kind with
    | Root | Layer -> Int64.sub (Int64.sub wall s.hidden) s.children
    | Probe | Attributed -> wall
  in
  Int64.to_float self *. 1e-9

let summarize () : summary =
  let totals = Hashtbl.create 4 and rows = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.kind with
      | Root ->
        let secs = Option.value ~default:0.0 (Hashtbl.find_opt totals s.phase) in
        Hashtbl.replace totals s.phase (secs +. effective s)
      | Layer | Probe | Attributed when s.phase <> "" ->
        let key = (s.phase, s.name) in
        let r =
          Option.value (Hashtbl.find_opt rows key)
            ~default:
              { r_self = 0.0; r_minor = 0.0; r_major = 0.0; r_child = s.kind = Probe }
        in
        (* a replay's allocation is its own, though it runs nested *)
        let top = s.depth = 1 || s.kind = Attributed in
        Hashtbl.replace rows key
          { r with
            r_self = r.r_self +. self_seconds s;
            r_minor = (r.r_minor +. if top then s.minor else 0.0);
            r_major = (r.r_major +. if top then s.major else 0.0) }
      | Layer | Probe | Attributed -> ())
    !finished;
  { totals = List.of_seq (Hashtbl.to_seq totals);
    rows = List.of_seq (Hashtbl.to_seq rows) }

(* Chrome trace-event JSON ("X" complete events, microseconds); opens
   in Perfetto or chrome://tracing. *)
let write_chrome (path : string) : unit =
  let t0 =
    List.fold_left (fun m s -> if Int64.compare s.start m < 0 then s.start else m)
      Int64.max_int !finished
  in
  let us t = Int64.to_float (Int64.sub t t0) /. 1000.0 in
  let kind_name = function
    | Root -> "root"
    | Layer -> "layer"
    | Probe -> "probe"
    | Attributed -> "attributed"
  in
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      output_string oc
        (Json.to_string
           (Json.Obj
              [ ("name", Json.Str s.name); ("cat", Json.Str (kind_name s.kind));
                ("ph", Json.Str "X"); ("ts", Json.Num (us s.start));
                ("dur", Json.Num (us s.stop -. us s.start)); ("pid", Json.Num 1.0);
                ("tid", Json.Num 1.0);
                ("args",
                 Json.Obj
                   [ ("phase", Json.Str s.phase);
                     ("minor_words", Json.Num s.minor);
                     ("major_words", Json.Num s.major) ]) ])))
    (List.rev !finished);
  output_string oc "\n]}\n";
  close_out oc
