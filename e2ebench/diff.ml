(* bench diff OLD NEW: compare two sets of untraced runs (the JSON lines
   [--out] appends), one row per (workload, end-to-end metric), under
   the bounds and directions of BENCHMARK.json.

   A row is "worse" or "better" when the median moved by more than the
   metric's bound, "within" otherwise, and "unresolved" when either
   side's spread (quartile distance over median) exceeds the bound --
   unless every new run beats, or loses to, every old run.  A value a
   run could not measure (printed as null, e.g. a percentile of failed
   operations) counts as infinitely bad.  Exits 1 on any worse row, an
   incorrect run, or a higher share of failed operations. *)

(* Quartile distance over median, by Python's statistics.quantiles;
   infinite when a quartile is not finite. *)
let spread (xs : float list) : float =
  let a = Measure.sorted xs in
  let s = (Measure.cut a ~i:3 ~n:4 -. Measure.cut a ~i:1 ~n:4) /. Measure.cut a ~i:2 ~n:4 in
  if Float.is_finite s then s else infinity

(* A metric's value in one run; null or absent is infinitely bad. *)
let value ~(lower : bool) (v : Json.t) : float =
  match v with Json.Num x -> x | _ -> if lower then infinity else neg_infinity

type row = { old_median : float; new_median : float; spread : float; verdict : string }

(* One (workload, metric) row from the old and new runs' values. *)
let compare_runs ~(bound : float) ~(lower : bool) (o : float list) (n : float list) : row =
  let mo = Measure.median o and mn = Measure.median n in
  (* worsening as a share of the old median: positive is worse *)
  let worse_by = (if lower then mn -. mo else mo -. mn) /. mo in
  let beats a b = if lower then a < b else a > b in
  let all_better = List.for_all (fun x -> List.for_all (beats x) o) n
  and all_worse = List.for_all (fun x -> List.for_all (fun y -> beats y x) o) n in
  let s = Float.max (spread o) (spread n) in
  let verdict =
    if not (Float.is_finite mn) then "worse"
    else if not (Float.is_finite mo) then "better"
    else if s > bound && not (all_better || all_worse) then "unresolved"
    else if worse_by > bound then "worse"
    else if worse_by < -.bound then "better"
    else "within"
  in
  { old_median = mo; new_median = mn; spread = s; verdict }

type run = {
  workload : string;
  correct : bool;
  attempted : float;
  failed : float;
  metrics : Json.t;
}

let read_runs (path : string) : run list =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map Json.of_string
  |> List.filter (fun r -> Json.member "trace" r = Json.Bool false)
  |> List.map (fun r ->
         { workload = Json.to_str (Json.member "workload" r);
           correct = Json.member "correct" r = Json.Bool true;
           attempted = Json.to_num (Json.member "attempted" r);
           failed = Json.to_num (Json.member "failed" r);
           metrics = Json.member "metrics" r })

let main (old_path : string) (new_path : string) : int =
  let spec = Json.of_string (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) in
  let old_runs = read_runs old_path and new_runs = read_runs new_path in
  let regressions = ref 0 in
  Printf.printf "%-14s %-12s %12s %12s %8s %7s %7s  %s\n" "workload" "metric" "old" "new"
    "change" "bound" "spread" "verdict";
  List.iter
    (fun w ->
      let name = Json.to_str (Json.member "name" w) in
      let olds = List.filter (fun r -> r.workload = name) old_runs
      and news = List.filter (fun r -> r.workload = name) new_runs in
      if olds <> [] && news <> [] then begin
        List.iter
          (fun m ->
            let metric = Json.to_str (Json.member "name" m) in
            let bound = Json.to_num (Json.member "bound" m) in
            let lower = Json.member "better" m = Json.Str "lower" in
            let values rs =
              List.map
                (fun r -> value ~lower (Json.member "value" (Json.member metric r.metrics)))
                rs
            in
            let r = compare_runs ~bound ~lower (values olds) (values news) in
            if r.verdict = "worse" then incr regressions;
            Printf.printf "%-14s %-12s %12.4f %12.4f %+7.1f%% %6.0f%% %6.1f%%  %s\n" name
              metric r.old_median r.new_median
              (100.0 *. (r.new_median -. r.old_median) /. r.old_median)
              (100.0 *. bound) (100.0 *. r.spread) r.verdict)
          (Json.to_list (Json.member "end_to_end" spec));
        let share rs =
          let a = List.fold_left (fun s r -> s +. r.attempted) 0.0 rs
          and f = List.fold_left (fun s r -> s +. r.failed) 0.0 rs in
          f /. a
        in
        if share news > share olds then begin
          incr regressions;
          Printf.printf "%-14s failed share rose from %.4f%% to %.4f%%\n" name
            (100.0 *. share olds) (100.0 *. share news)
        end;
        if not (List.for_all (fun r -> r.correct) news) then begin
          incr regressions;
          Printf.printf "%-14s has runs that failed their correctness checks\n" name
        end
      end)
    (Json.to_list (Json.member "workloads" spec));
  if !regressions > 0 then 1 else 0
