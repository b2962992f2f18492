(* The committed BENCH_*.json files at the repository root: each must be
   a full run (a --quick run writes under _bench/ instead) whose gate
   passed.  The gate field is "clean", or "tiers_agree" for the records
   that have no "clean" (exec and ranges). *)

let committed = [ "chaos"; "exec"; "pgo"; "ranges"; "serve"; "validate" ]

let bench_files () =
  Sys.readdir ".."
  |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
  |> List.sort compare

let test_committed_bench_files () =
  let files = bench_files () in
  List.iter
    (fun name ->
      let file = Printf.sprintf "BENCH_%s.json" name in
      Alcotest.(check bool) (file ^ " exists") true (List.mem file files))
    committed;
  List.iter
    (fun file ->
      let record =
        try Json.of_string (In_channel.with_open_text (Filename.concat ".." file) In_channel.input_all)
        with Json.Parse_error e -> Alcotest.failf "%s: %s" file e
      in
      let field k =
        match Json.member k record with
        | Json.Bool b -> Some b
        | _ -> None
      in
      Alcotest.(check (option bool)) (file ^ " quick") (Some false) (field "quick");
      let gate = if field "clean" <> None then "clean" else "tiers_agree" in
      Alcotest.(check (option bool)) (file ^ " " ^ gate) (Some true) (field gate))
    files

let tests =
  [ Alcotest.test_case "committed BENCH files are full, passing runs" `Quick
      test_committed_bench_files ]
