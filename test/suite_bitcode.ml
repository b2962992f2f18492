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
   decoder raise [Invalid_argument] past the loader, and a text image
   whose duplicate block label did the same in the parser. *)
let hostile_images =
  [ ( "negative type count",
      "LLVM\x01" ^ String.make 8 '\xff' ^ "\x7f",
      "hostile: malformed bitcode: bad count -1" );
    ( "pointer to type index 5 of 1",
      "LLVM\x01\x01\x05\x05",
      "hostile: malformed bitcode: type index 5 out of range" );
    ( "global with type index 9",
      "LLVM\x01\x00\x00\x01\x01g\x00\x09",
      "hostile: malformed bitcode: type index 9 out of range" );
    ( "duplicate block label",
      "int %f() {\na:\n  ret int 0\na:\n  ret int 1\n}\n",
      "hostile:4: duplicate block label a" ) ]

let test_hostile_images_stay_in_loader () =
  List.iter
    (fun (what, image, expected) ->
      match Llvm_serve.Loader.of_bytes ~name:"hostile" image with
      | Ok _ -> Alcotest.failf "%s: decoded" what
      | Error e ->
        Alcotest.(check string) (what ^ ": declared error") expected e
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

(* Golden digests.  The encoded bytes are the content identity behind
   cache keys and [Digest.of_module], so an encoder change that moves a
   single byte of any image below is a format change, not a refactor.
   The corpus is every quick Table-1 profile and every [Ehprog] program
   at -O0 and -O3 plus a few generated modules, each encoded plain and
   stripped; the table holds (label, MD5 plain, MD5 stripped). *)
let golden_corpus () : (string * Ir.modul) list =
  let at level label compile =
    let m = compile () in
    Llvm_transforms.Pipelines.optimize_module ~level m;
    (Printf.sprintf "%s -O%d" label level, m)
  in
  let both label compile = [ at 0 label compile; at 3 label compile ] in
  List.concat_map
    (fun p ->
      let p = Llvm_workloads.Spec.quick p in
      both p.Llvm_workloads.Genprog.p_name (fun () ->
          Llvm_workloads.Genprog.compile p))
    Llvm_workloads.Spec.(spec2000 @ disciplined)
  @ List.concat_map
      (fun (name, src) ->
        both name (fun () -> Llvm_workloads.Ehprog.compile name src))
      Llvm_workloads.Ehprog.programs
  @ List.map
      (fun seed -> (Printf.sprintf "irgen %d" seed, Llvm_fuzz.Irgen.gen_module seed))
      [ 1; 2; 3; 17; 4242 ]

let golden_md5s =
  [ ("164.gzip -O0", "6b4033a91037f46d6d182e72516eb5c2",
     "a549d27c999bf5b4b808dd68460ef0be");
    ("164.gzip -O3", "fc6e468a882190a045f6b71d47b23409",
     "a1694abc7b8fe561697a49f471a0e4af");
    ("175.vpr -O0", "9bf61fd830689127b10640eec510bd29",
     "f9d33e3c5932b483bd478d25fe57d4e5");
    ("175.vpr -O3", "1a6c9096ef23084b7a4ade335bcc8a98",
     "e2a9022a0a942807a1717ce33b76d5e5");
    ("176.gcc -O0", "e92283c3471b2dc37899aa270912cd4f",
     "760c9ffffa1d5d23f8852b6179c2fcc5");
    ("176.gcc -O3", "61d7cbf07b8e6394977881d41a860258",
     "ff3db83e4f6200b465d720fc4c14c814");
    ("177.mesa -O0", "d959a17646fbcbdc672b2a6e576dc894",
     "003042f06a45f6ef835a64593a4830da");
    ("177.mesa -O3", "30c9ce69bcf059abd10317f489278a21",
     "1582a21b4f1ad25fdb967fc3fc7a9065");
    ("179.art -O0", "3ed02071f472d25792e2712fdbf75959",
     "bc1d98f3a35879644aec0d230462e43f");
    ("179.art -O3", "38563e16adb19292dab407e7b3afe61e",
     "4d1dd479d5a827f4177d210d4ded4377");
    ("181.mcf -O0", "abef6ab6fd105a1a928c61cac4281c94",
     "45c27339412c66f4d0197b5324bfeff2");
    ("181.mcf -O3", "b69462a3771402889ee63cabe8adfcf9",
     "5cf14e4e543b842a4748de422ccd5b54");
    ("183.equake -O0", "d8e8f629a52a6137b273f8836d39b64e",
     "572a0e50d1499916873c8fa589cb8c57");
    ("183.equake -O3", "6ca34d07340c246054a82804f9ba1990",
     "26ad24fdbe0cbb4a6f11547939f8fb9b");
    ("186.crafty -O0", "208ac2564df0a268f7b71effa5c006a3",
     "e9417457a1a558f0e68193fe8d8bc0ed");
    ("186.crafty -O3", "b3aed0ef75cb9245b5dc67870abbc6cd",
     "b536430fff1eb1b76f9b203633fb8c92");
    ("188.ammp -O0", "78d3d91984c82d80fcf93f80e4f372b2",
     "56412120811881da7be205d7362fff83");
    ("188.ammp -O3", "0b8d3fa8f00a866ca0a70a495aea7fd0",
     "c1118178b5ef9be523ae1646c3a45bf3");
    ("197.parser -O0", "5e6cd1b3147b1885170cbf214b2160cd",
     "d07b81487da4ae4ce9337bf72154f380");
    ("197.parser -O3", "ecda780628e950407e06da6f93e964ed",
     "d8bca73a7855f7454dd25b1c185da63f");
    ("253.perlbmk -O0", "2119fa1d3c69eaa469d288121fd2b130",
     "0b18c1996fcab563f24a2bb7f21a3d23");
    ("253.perlbmk -O3", "d8af67ebc086dcc5145d021e0dcc1e96",
     "ba5203c316a2cf3faf273f31d2a55252");
    ("254.gap -O0", "b63cca219f357a7a69d48d0821be35ee",
     "321224334cbac7b6489c4bc5f595cf8a");
    ("254.gap -O3", "dbe62c40f1cbb650d5a95dd88ed32aec",
     "ee9fb4fa7b1ad8484cef5d18b7c091d6");
    ("255.vortex -O0", "88339e41977cb3de7b26b68d2338bd35",
     "8b9fd4d2620446dc9ebe6c3fabf2d1ee");
    ("255.vortex -O3", "326607219dda9ad732142f8b748aedff",
     "e1198962262f2c4f9d4c381c753f6091");
    ("256.bzip2 -O0", "be2e2f5aa1cf345741e1af8be85eebe3",
     "0f87afee542a78cab39629d66706f945");
    ("256.bzip2 -O3", "6c0b3f4ef7133aab51c3b4e215446c61",
     "a34be2b4c40cb50dec92f59768dfdfa5");
    ("300.twolf -O0", "55e2f4c79c486c91070b4fa2efe1586c",
     "e2719e1cbf4c160ed50e074bf005b241");
    ("300.twolf -O3", "4c3b2001132448f66d902ee36cea4895",
     "b26b11dcb16fadeb141de8125d6db6d8");
    ("olden.treeadd -O0", "eac58d1bfb86259bd61c2eb5ad22c8c8",
     "6e656df8fed2f5ab9de5b3497ef43391");
    ("olden.treeadd -O3", "4115c75c3d9d443e0e098ce9bd5d3daf",
     "2d5f00e0d431e5287acff72d48a800ca");
    ("olden.mst -O0", "fe8a9db2715cdf230e1f9d1eea22588b",
     "49c13a052e10008223045430df3447e5");
    ("olden.mst -O3", "f21c7e38dfcb2699cd30c655e9d87f98",
     "91bb44d88d8b1cc7b23738c0941a0689");
    ("ptrdist.ks -O0", "cc84ef276965064189214d9187e8a3a6",
     "2e60c22ebd4f49a9d285d0c58784a337");
    ("ptrdist.ks -O3", "1f889935e967059264f5ad460f596086",
     "4ebf6f73300b922a20ad24ee86540ab5");
    ("ptrdist.ft -O0", "3a6c6471f4d89f65bb053ea0a44be2c9",
     "8051f704a1398eaa71324d63a84edc2a");
    ("ptrdist.ft -O3", "6da71083556362cb3f213d7e4766e7ad",
     "7358d9515666a7c1f7eb70f21d24f872");
    ("eh.pingpong -O0", "b04065a6971294ce23703193bbf9d765",
     "cb57f4326ba8b6cfcd4236eb512a2340");
    ("eh.pingpong -O3", "46a3cf2156b19a50a50830bdb1a75adb",
     "be65d0525b6eab74afd3fa67ddce05c2");
    ("eh.deep_unwind -O0", "dc5799c39773afb71cc8bee95fd58336",
     "fded54aa498060cb7ffc3b57825dca44");
    ("eh.deep_unwind -O3", "b417c16d718608dd4d21e5b25ecad045",
     "d98b4ded50e67bac1fe2327283a18b47");
    ("eh.nested_rethrow -O0", "2136ccf3658c70f91c57b4c7c22211ef",
     "627d931193661f261b4cd48944d2a520");
    ("eh.nested_rethrow -O3", "298c8feb4cf8cff3a4b8747f01e5216d",
     "063444e66d216e7c8a8af5b41b48a2da");
    ("eh.sjlj_mix -O0", "1013087d8bf82c31239818857e9b5551",
     "c99cf1a9bdce567fbeab86e3c3510dc5");
    ("eh.sjlj_mix -O3", "a10f963114cb99841e8046a6e408e6de",
     "78105dffc9e69c9d4e9de37dc39807b9");
    ("eh.unwind_off_main -O0", "cfc7392b22fe28937568e08c82088314",
     "d1102fb871362d7f308d1d26d0f85bfc");
    ("eh.unwind_off_main -O3", "0c0280d1381d22d4ca813eb6464af59a",
     "0b546df663b92b6f6e055c641d9117fb");
    ("irgen 1", "4c6d45a282759ec13a43b82224a53170",
     "e3ad2492d5979673a886cb73617d6340");
    ("irgen 2", "daafc1aceab7727ccb46a917020a458e",
     "6b9846c2229ce8ad4690ebe332603ff6");
    ("irgen 3", "a415bb9ee9946eb3370edbd38e11a41a",
     "6de30fd345e9af9e10b4961d009e149e");
    ("irgen 17", "279b6e0a5b1a0ac6cfaeb3fc4ebc3e8b",
     "9e5ab6d672b61b9b3ad81b93b1cc7141");
    ("irgen 4242", "c91e6307dd150d0aae759c0e98e30be8",
     "4b1890935e440ec3f523b385348f26fc") ]

let test_golden_digests () =
  let md5 s = Stdlib.Digest.to_hex (Stdlib.Digest.string s) in
  let got =
    List.map
      (fun (label, m) ->
        let plain = md5 (fst (Encoder.encode m)) in
        (label, plain, md5 (fst (Encoder.encode ~strip:true m))))
      (golden_corpus ())
  in
  if got <> golden_md5s then
    Alcotest.failf "bitcode bytes changed; the encoder now gives:\n%s"
      (String.concat "\n"
         (List.map
            (fun (l, a, b) -> Printf.sprintf "    (%S, %S, %S);" l a b)
            got))

(* Each function carries one operand pool; equal constants share an
   entry, constants that differ only in type do not. *)
let pool_entries src =
  let m =
    try Llvm_asm.Parser.parse_module src
    with Llvm_asm.Parser.Parse_error (msg, line) ->
      Alcotest.failf "parse error at line %d: %s" line msg
  in
  (snd (Encoder.encode m)).Encoder.pool_entries

let test_pool_interning () =
  Alcotest.(check int) "7 as int and as uint: two entries" 2
    (pool_entries
       {|
int %f(int %x, uint %y) {
entry:
  %a = add int %x, 7
  %b = add uint %y, 7
  ret int %a
}
|});
  Alcotest.(check int) "7 twice as int: one entry" 1
    (pool_entries
       {|
int %f(int %x) {
entry:
  %a = add int %x, 7
  %b = add int %a, 7
  ret int %b
}
|});
  Alcotest.(check int) "null as int* and as sbyte*: two entries" 2
    (pool_entries
       {|
bool %f(int* %p, sbyte* %q) {
entry:
  %a = seteq int* %p, null
  %b = seteq sbyte* %q, null
  ret bool %a
}
|})

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
    Alcotest.test_case "golden digests of a fixed corpus" `Quick
      test_golden_digests;
    Alcotest.test_case "operand pool interning" `Quick test_pool_interning;
    qtest_encode_stable ]
