(* Bitcode tests: the binary form round-trips losslessly (section 2.5),
   most instructions use the one-word encoding (section 4.1.3), and
   malformed images are rejected. *)

open Llvm_ir
open Llvm_bitcode

let roundtrip (m : Ir.modul) : Encoder.stats =
  let image, stats = Encoder.encode m in
  let m2 = Decoder.decode image in
  (match Verify.verify_module m2 with
  | [] -> ()
  | errs ->
    Alcotest.failf "decoded module invalid: %s"
      (Fmt.str "%a" Fmt.(list Verify.pp_error) errs));
  Alcotest.(check string)
    ("bitcode round-trip for " ^ m.Ir.mname)
    (Printer.module_to_string m)
    (Printer.module_to_string m2);
  stats

let test_roundtrip_samples () =
  List.iter (fun m -> ignore (roundtrip m)) (Samples.all ())

let test_roundtrip_minic () =
  let src =
    {| struct Node { int value; struct Node* next; };
       class Shape { public: int tag; virtual int area() { return 0; } };
       class Rect : public Shape { public: int w; int h;
         virtual int area() { return w * h; } };
       int risky(int x) { if (x > 10) throw 99; return x; }
       int main() {
         Rect* r = new Rect;
         r->w = 6; r->h = 7;
         int got = 0;
         try { got = risky(50); } catch (int e) { got = e; }
         Shape* s = (Shape*)r;
         return got + s->area();
       } |}
  in
  let m = Llvm_minic.Codegen.compile_string src in
  ignore (roundtrip m);
  (* also after optimization *)
  Llvm_transforms.Pipelines.optimize_module ~level:3 m;
  ignore (roundtrip m)

let test_one_word_dominates () =
  let m = Samples.fact_module () in
  let stats = roundtrip m in
  Alcotest.(check bool)
    (Printf.sprintf "most instructions fit one word (%d vs %d)"
       stats.Encoder.one_word_instrs stats.Encoder.wide_instrs)
    true
    (stats.Encoder.one_word_instrs > stats.Encoder.wide_instrs)

let test_size_reasonable () =
  (* on a real program, stripped bitcode should average only a few bytes
     per instruction (most fit a single 32-bit word) *)
  let src =
    {| struct Node { int value; struct Node* next; };
       int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
       int sum(struct Node* head) {
         int s = 0;
         while (head != null) { s += head->value; head = head->next; }
         return s;
       }
       int main() {
         struct Node* head = null;
         for (int i = 0; i < 20; i++) {
           struct Node* n = new struct Node;
           n->value = fib(i % 10); n->next = head; head = n;
         }
         return sum(head);
       } |}
  in
  let m = Llvm_minic.Codegen.compile_string src in
  Llvm_transforms.Pipelines.optimize_module ~level:2 m;
  let image, stats = Encoder.encode ~strip:true m in
  let instrs = Ir.module_instr_count m in
  let per_instr = float_of_int (String.length image) /. float_of_int instrs in
  (* tiny module: module headers dominate, so the bound is loose here;
     the Figure 5 benchmark measures density on realistic program sizes *)
  Alcotest.(check bool)
    (Printf.sprintf "%.1f bytes/instruction" per_instr)
    true
    (per_instr < 12.0);
  Alcotest.(check bool) "≥80% of instructions in one word" true
    (float_of_int stats.Encoder.one_word_instrs
    >= 0.8 *. float_of_int (stats.Encoder.one_word_instrs + stats.Encoder.wide_instrs));
  (* stripping must not change the code itself *)
  let m2 = Decoder.decode image in
  Alcotest.(check int) "same instruction count" instrs (Ir.module_instr_count m2)

let test_malformed_rejected () =
  let fails s =
    match Decoder.decode s with
    | exception Decoder.Malformed _ -> ()
    | _ -> Alcotest.fail "expected Malformed"
  in
  fails "";
  fails "XXXX";
  fails "LLVM";
  let image, _ = Encoder.encode (Samples.add1_module ()) in
  fails (String.sub image 0 (String.length image - 3))

(* Images whose counts and indices are out of range once made the
   decoder raise [Invalid_argument] past the loader. *)
let hostile_images =
  [ ("negative type count", "LLVM\x01" ^ String.make 8 '\xff' ^ "\x7f");
    ("pointer to type index 5 of 1", "LLVM\x01\x01\x05\x05");
    ("global with type index 9", "LLVM\x01\x00\x00\x01\x01g\x00\x09") ]

let test_hostile_images_stay_in_loader () =
  List.iter
    (fun (what, image) ->
      match Llvm_serve.Loader.of_bytes ~name:"hostile" image with
      | Ok _ -> Alcotest.failf "%s: decoded" what
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: declared error (%s)" what e)
          true
          (String.starts_with ~prefix:"hostile: malformed bitcode: " e)
      | exception exn ->
        Alcotest.failf "%s: escaped the loader: %s" what (Printexc.to_string exn))
    hostile_images

let test_execution_equivalence () =
  (* a module decoded from bitcode behaves identically *)
  let src =
    {| int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
       int main() { return fib(10); } |}
  in
  let m = Llvm_minic.Codegen.compile_string src in
  let image, _ = Encoder.encode m in
  let m2 = Decoder.decode image in
  let run m =
    match (Llvm_exec.Interp.run_main m).Llvm_exec.Interp.status with
    | `Returned (Llvm_exec.Interp.Rint (_, v)) -> v
    | _ -> Alcotest.fail "run failed"
  in
  Alcotest.(check int64) "same result" (run m) (run m2)

(* Encode→decode→encode must reproduce the image byte for byte: the
   binary form has exactly one encoding per module, so a re-encode
   that drifts means the decoder dropped or reordered something even
   when the printed forms happen to agree. *)
let prop_encode_stable seed =
  let m = Llvm_fuzz.Irgen.gen_module seed in
  let image, _ = Encoder.encode m in
  let m2 = Decoder.decode image in
  let image2, _ = Encoder.encode m2 in
  if image2 <> image then
    QCheck.Test.fail_reportf
      "re-encoding the decoded module changed bytes (seed %d): %d -> %d" seed
      (String.length image) (String.length image2);
  true

let qtest_encode_stable =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:50
       ~name:"encode/decode/encode is byte-identical on generated modules"
       (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 1 1_000_000))
       prop_encode_stable)

let tests =
  [ Alcotest.test_case "round-trips sample modules" `Quick test_roundtrip_samples;
    Alcotest.test_case "round-trips front-end output" `Quick test_roundtrip_minic;
    Alcotest.test_case "one-word encodings dominate" `Quick test_one_word_dominates;
    Alcotest.test_case "size per instruction is small" `Quick test_size_reasonable;
    Alcotest.test_case "malformed images rejected" `Quick test_malformed_rejected;
    Alcotest.test_case "hostile counts and indices stay in the loader" `Quick
      test_hostile_images_stay_in_loader;
    Alcotest.test_case "decoded modules execute identically" `Quick
      test_execution_equivalence;
    qtest_encode_stable ]
