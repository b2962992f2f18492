(* Smoke tests for the command-line tools: the full
   minicc -> llvm-as -> opt -> llvm-dis -> lli -> llc pipeline runs and
   agrees with itself.  The binaries are located relative to this test
   executable inside the dune build tree. *)

let bin name =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" (name ^ ".exe"))

let tools_available () = Sys.file_exists (bin "opt")

let tmpdir = Filename.get_temp_dir_name ()
let tmp name = Filename.concat tmpdir ("llvm_repro_tooltest_" ^ name)

let sh fmt =
  Fmt.kstr
    (fun cmd ->
      let code = Sys.command (cmd ^ " > /dev/null 2>&1") in
      (cmd, code))
    fmt

let check_ok (cmd, code) =
  if code <> 0 then Alcotest.failf "command failed (%d): %s" code cmd

let write path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let source =
  {| extern void print_int(int x);
     static int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
     int main() { print_int(fib(10)); return 55 & 63; } |}

let test_full_pipeline () =
  if not (tools_available ()) then Alcotest.skip ()
  else begin
    write (tmp "prog.c") source;
    check_ok (sh "%s %s -o %s" (bin "minicc") (tmp "prog.c") (tmp "prog.ll"));
    check_ok (sh "%s %s -o %s" (bin "llvm_as") (tmp "prog.ll") (tmp "prog.bc"));
    check_ok
      (sh "%s %s -O 3 -o %s" (bin "opt") (tmp "prog.bc") (tmp "prog_opt.bc"));
    check_ok (sh "%s %s -o %s" (bin "llvm_dis") (tmp "prog_opt.bc") (tmp "prog_opt.ll"));
    check_ok (sh "%s %s -S --march sparc" (bin "llc") (tmp "prog_opt.bc"));
    (* lli exits with main's return value (55): both forms must agree *)
    let _, c1 = sh "%s %s" (bin "lli") (tmp "prog.bc") in
    let _, c2 = sh "%s %s" (bin "lli") (tmp "prog_opt.ll") in
    Alcotest.(check int) "fib program exits 55" 55 c1;
    Alcotest.(check int) "optimized program agrees" c1 c2
  end

let test_link_tool () =
  if not (tools_available ()) then Alcotest.skip ()
  else begin
    write (tmp "a.c") "extern int half(int x);\nint main() { return half(84); }";
    write (tmp "b.c") "int half(int x) { return x / 2; }";
    check_ok (sh "%s %s -o %s" (bin "minicc") (tmp "a.c") (tmp "a.ll"));
    check_ok (sh "%s %s -o %s" (bin "minicc") (tmp "b.c") (tmp "b.ll"));
    check_ok
      (sh "%s %s %s --internalize --ipo -o %s" (bin "llvm_link") (tmp "a.ll")
         (tmp "b.ll") (tmp "linked.ll"));
    let _, code = sh "%s %s" (bin "lli") (tmp "linked.ll") in
    Alcotest.(check int) "whole program runs" 42 code
  end

let test_opt_lists_passes () =
  if not (tools_available ()) then Alcotest.skip ()
  else begin
    let ic =
      Unix.open_process_in (Filename.quote (bin "opt") ^ " --list 2>/dev/null")
    in
    let lines = ref [] in
    (try
       while true do
         lines := input_line ic :: !lines
       done
     with End_of_file -> ());
    ignore (Unix.close_process_in ic);
    Alcotest.(check bool) "registry lists all passes" true
      (List.length !lines >= 20);
    Alcotest.(check bool) "mem2reg present" true
      (List.exists
         (fun l -> String.length l >= 7 && String.sub l 0 7 = "mem2reg")
         !lines)
  end

let test_llvm_fuzz_tool () =
  if not (tools_available ()) then Alcotest.skip ()
  else
    (* a short clean run: all oracles, a mutation path, JSON on stdout *)
    check_ok
      (sh "%s --seed 1 --count 3 --paths 1 --json -q" (bin "llvm_fuzz"))

let test_bugpoint_tool () =
  if not (tools_available ()) then Alcotest.skip ()
  else begin
    (* find a generated module the injected-bug oracle miscompiles,
       then make the CLI reduce it by at least 80% *)
    let oracle =
      Option.get (Llvm_fuzz.Oracle.of_spec "pass:inject-sub-swap")
    in
    let rec hunt seed =
      if seed > 60 then Alcotest.fail "no seed exposes the injected bug"
      else
        let m = Llvm_fuzz.Irgen.gen_module seed in
        match oracle.Llvm_fuzz.Oracle.check m with
        | Llvm_fuzz.Oracle.Fail _ -> m
        | _ -> hunt (seed + 1)
    in
    let m = hunt 1 in
    write (tmp "miscompile.ll") (Llvm_ir.Printer.module_to_string m);
    check_ok
      (sh "%s %s --oracle pass:inject-sub-swap -o %s" (bin "bugpoint")
         (tmp "miscompile.ll") (tmp "miscompile.reduced.ll"));
    let reduced =
      Llvm_asm.Parser.parse_file ~name:"reduced" (tmp "miscompile.reduced.ll")
    in
    (match oracle.Llvm_fuzz.Oracle.check reduced with
    | Llvm_fuzz.Oracle.Fail _ -> ()
    | _ -> Alcotest.fail "bugpoint output no longer fails the oracle");
    let n0 = Llvm_ir.Ir.module_instr_count m in
    let n1 = Llvm_ir.Ir.module_instr_count reduced in
    if float_of_int n1 > 0.2 *. float_of_int n0 then
      Alcotest.failf "bugpoint only reduced %d -> %d instructions" n0 n1
  end

(* Run a command; return its exit code, stdout lines and stderr text. *)
let capture fmt =
  Fmt.kstr
    (fun cmd ->
      let out = tmp "capture.out" and err = tmp "capture.err" in
      let code =
        Sys.command (Printf.sprintf "%s > %s 2> %s" cmd (Filename.quote out) (Filename.quote err))
      in
      let lines = String.split_on_char '\n' (Llvm_serve.Loader.read_file out) in
      (code, List.filter (( <> ) "") lines, Llvm_serve.Loader.read_file err))
    fmt

let test_opt_time_passes_covers_levels () =
  if not (tools_available ()) then Alcotest.skip ()
  else begin
    write (tmp "timed.c") source;
    check_ok (sh "%s %s -o %s" (bin "minicc") (tmp "timed.c") (tmp "timed.ll"));
    let code, lines, _ =
      capture "%s %s -O 3 --time-passes -o %s" (bin "opt") (tmp "timed.ll")
        (tmp "timed_opt.ll")
    in
    Alcotest.(check int) "opt succeeds" 0 code;
    let first_word l = List.hd (String.split_on_char ' ' l) in
    Alcotest.(check (list string)) "one line per -O3 pass, in order"
      (List.map
         (fun p -> p.Llvm_transforms.Pass.name)
         (Llvm_transforms.Pipelines.passes ~level:3))
      (List.map first_word lines)
  end

let test_out_of_range_level_is_usage_error () =
  if not (tools_available ()) then Alcotest.skip ()
  else begin
    write (tmp "level.c") source;
    check_ok (sh "%s %s -o %s" (bin "minicc") (tmp "level.c") (tmp "level.ll"));
    let expect_usage_error what (code, _, err) =
      (* cmdliner's exit code for a command-line usage error *)
      Alcotest.(check int) (what ^ " exits with a usage error") 124 code;
      Alcotest.(check bool) (what ^ " names the level") true
        (Astring_contains.contains err "invalid optimization level")
    in
    expect_usage_error "opt -O 7" (capture "%s %s -O 7" (bin "opt") (tmp "level.ll"));
    expect_usage_error "minicc -O -1"
      (capture "%s %s -O-1" (bin "minicc") (tmp "level.c"));
    check_ok (sh "%s %s -O 0" (bin "opt") (tmp "level.ll"));
    check_ok (sh "%s %s -O3" (bin "minicc") (tmp "level.c"))
  end

let test_opt_rejects_hostile_bitcode () =
  if not (tools_available ()) then Alcotest.skip ()
  else begin
    let path = tmp "hostile.bc" in
    write path ("LLVM\x01" ^ String.make 8 '\xff' ^ "\x7f");
    let code, _, err = capture "%s %s -O 2" (bin "opt") path in
    Alcotest.(check int) "opt fails cleanly" 1 code;
    Alcotest.(check string) "declared error message"
      (path ^ ": malformed bitcode: bad count -1\n")
      err;
    (* well-formed bitcode whose constant is wider than its type: the
       verifier's message, from both the optimizer and the engine *)
    let path = tmp "ill_shaped.bc" in
    write path (fst (Llvm_bitcode.Encoder.encode (Samples.ill_shaped_constant_module ())));
    List.iter
      (fun cmd ->
        let code, _, err = capture "%s %s" cmd path in
        Alcotest.(check int) (cmd ^ " fails cleanly") 1 code;
        Alcotest.(check string) "verifier message"
          (Samples.ill_shaped_constant_error ^ "\nmodule verification failed\n")
          err)
      [ bin "opt" ^ " -O 2"; bin "lli" ]
  end

(* A module that names an undefined type is reported by the verifier,
   not by an uncaught [Ltype.Unresolved]. *)
let test_opt_reports_undefined_type () =
  if not (tools_available ()) then Alcotest.skip ()
  else begin
    let path = tmp "undefined_type.ll" in
    write path "void %f(%T* %p) {\nentry:\n  store int 0, %T* %p\n  ret void\n}";
    let code, _, err = capture "%s %s -O 2" (bin "opt") path in
    Alcotest.(check int) "opt fails cleanly" 1 code;
    Alcotest.(check string) "verifier message"
      "f: undefined type %T\nmodule verification failed\n" err
  end

let tests =
  [ Alcotest.test_case "minicc/as/opt/dis/lli/llc pipeline" `Quick
      test_full_pipeline;
    Alcotest.test_case "llvm-link across units" `Quick test_link_tool;
    Alcotest.test_case "opt --list" `Quick test_opt_lists_passes;
    Alcotest.test_case "opt --time-passes covers -O pipelines" `Quick
      test_opt_time_passes_covers_levels;
    Alcotest.test_case "out-of-range -O is a usage error" `Quick
      test_out_of_range_level_is_usage_error;
    Alcotest.test_case "opt rejects hostile bitcode" `Quick
      test_opt_rejects_hostile_bitcode;
    Alcotest.test_case "opt reports an undefined type" `Quick
      test_opt_reports_undefined_type;
    Alcotest.test_case "llvm-fuzz clean run" `Quick test_llvm_fuzz_tool;
    Alcotest.test_case "bugpoint reduces >= 80%" `Quick test_bugpoint_tool ]
