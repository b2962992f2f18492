(* Unit cases for the benchmark's statistics.  A failed operation is
   recorded as infinitely slow: it must neither turn a quantile into nan
   nor make [diff] raise, and a metric it leaves unmeasurable (printed
   as null) must read as a regression. *)

let check what ok = if not ok then failwith what

let () =
  (* a weight-0 neighbour that is infinite does not poison the cut *)
  check "median next to a failed op" (Measure.median [ 1.0; 2.0; infinity ] = 2.0);
  check "median of four" (Measure.median [ 3.0; 1.0; infinity; 2.0 ] = 2.5);
  check "quartile of a failed op" (Measure.cut [| 1.0; 2.0; infinity |] ~i:3 ~n:4 = infinity);
  (* a failed run's p50 is printed as null and read back as infinitely bad *)
  let printed = Json.to_string (Json.Obj [ ("value", Json.Num infinity) ]) in
  let null = Json.member "value" (Json.of_string printed) in
  check "null printed" (null = Json.Null);
  check "null is slow" (Diff.value ~lower:true null = infinity);
  check "null is no throughput" (Diff.value ~lower:false null = neg_infinity);
  let verdict ~lower o n = (Diff.compare_runs ~bound:0.1 ~lower o n).Diff.verdict in
  let failed = Diff.value ~lower:true null in
  check "failed latency is worse"
    (verdict ~lower:true [ 1.0; 1.1; 0.9 ] [ 1.0; failed; failed ] = "worse");
  check "failed throughput is worse"
    (verdict ~lower:false [ 10.0; 11.0; 9.0 ] [ 10.0; neg_infinity; neg_infinity ] = "worse");
  check "recovery is better" (verdict ~lower:true [ failed; failed; 1.0 ] [ 1.0; 1.0; 1.0 ] = "better");
  check "same is within" (verdict ~lower:true [ 1.0; 1.01; 0.99 ] [ 1.0; 1.02; 0.98 ] = "within");
  (* each operation of the round at its fastest over the whole rounds;
     the partial round is left out *)
  let w = Measure.new_window ~round:2 () in
  List.iter (Measure.record w ~ok:true) [ 1.0; 3.0; 2.0; 1.5; 100.0; 100.0; 0.5 ];
  check "fastest of three rounds" (Measure.best w = [| 1.0; 1.5 |]);
  check "p50 of the best" (List.assoc "p50_ms" (Measure.window_metrics w) = 1250.0);
  check "a round at its best" (List.assoc "ops_per_s" (Measure.window_metrics w) = 0.8);
  Measure.record w ~ok:false 0.0;
  check "a failure in any round stays" (Measure.best w = [| 0.5; infinity |]);
  let short = Measure.new_window ~round:4 () in
  List.iter (Measure.record short ~ok:true) [ 1.0; 3.0 ];
  check "a window shorter than a round is taken as it is" (Measure.best short = [| 1.0; 3.0 |]);
  print_endline "e2ebench statistics: ok"
