(* Property tests for the persistent profile layer (lib/profile):
   the saturating weighted merge must be commutative and associative
   (a fleet aggregate cannot depend on the order run profiles arrive
   in), the empty profile must be a merge identity, and the binary
   .llpf format must round-trip exactly.  Random profiles come from
   the deterministic workload RNG, so every failure is reproducible
   from the seed. *)

module Profile = Llvm_profile.Profile
module Rng = Llvm_workloads.Rng

(* A random profile: a handful of block and call-site entries drawn
   from small name pools (so two generated profiles overlap on some
   keys — merges that never collide would test nothing), with weights
   spanning tiny counts to near the saturation cap. *)
let random_profile (rng : Rng.t) : Profile.t =
  let p = Profile.empty () in
  let funcs = [ "main"; "worker"; "dispatch"; "leaf" ] in
  let blocks = [ "entry"; "loop"; "body"; "exit" ] in
  let weight rng =
    match Rng.int rng 4 with
    | 0 -> 1 + Rng.int rng 10
    | 1 -> 1 + Rng.int rng 100_000
    | 2 -> Profile.cap - Rng.int rng 3 (* near saturation *)
    | _ -> Profile.cap
  in
  let add_block () =
    let key =
      Profile.block_key ~func:(Rng.pick rng funcs) ~block:(Rng.pick rng blocks)
    in
    Hashtbl.replace p.Profile.blocks key
      (Profile.sat_add (weight rng)
         (Option.value ~default:0 (Hashtbl.find_opt p.Profile.blocks key)))
  in
  let add_call () =
    let key =
      Profile.site_key ~func:(Rng.pick rng funcs) ~block:(Rng.pick rng blocks)
        ~index:(Rng.int rng 3)
    in
    let targets =
      match Hashtbl.find_opt p.Profile.calls key with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 4 in
        Hashtbl.replace p.Profile.calls key t;
        t
    in
    let callee = Rng.pick rng funcs in
    Hashtbl.replace targets callee
      (Profile.sat_add (weight rng)
         (Option.value ~default:0 (Hashtbl.find_opt targets callee)))
  in
  p.Profile.runs <- Rng.int rng 5;
  for _ = 1 to 1 + Rng.int rng 8 do
    add_block ()
  done;
  for _ = 1 to Rng.int rng 6 do
    add_call ()
  done;
  p

let copy_into (dst : Profile.t) (src : Profile.t) = Profile.merge dst src

let check_equal what (a : Profile.t) (b : Profile.t) =
  if not (Profile.equal a b) then
    Alcotest.failf "%s:@.  left:  %a@.  right: %a" what Profile.pp a Profile.pp
      b

(* merge is commutative: A + B = B + A, including at saturation *)
let test_merge_commutative () =
  for seed = 1 to 200 do
    let rng = Rng.create seed in
    let a = random_profile rng and b = random_profile rng in
    let ab = Profile.empty () and ba = Profile.empty () in
    copy_into ab a;
    copy_into ab b;
    copy_into ba b;
    copy_into ba a;
    check_equal (Printf.sprintf "seed %d: A+B = B+A" seed) ab ba
  done

(* merge is associative: folding (A+B)+C and A+(B+C) agree *)
let test_merge_associative () =
  for seed = 1 to 200 do
    let rng = Rng.create (1000 + seed) in
    let a = random_profile rng
    and b = random_profile rng
    and c = random_profile rng in
    let left = Profile.empty () in
    copy_into left a;
    copy_into left b;
    copy_into left c;
    let bc = Profile.empty () in
    copy_into bc b;
    copy_into bc c;
    let right = Profile.empty () in
    copy_into right a;
    copy_into right bc;
    check_equal (Printf.sprintf "seed %d: (A+B)+C = A+(B+C)" seed) left right
  done

(* the empty profile is an identity on both sides *)
let test_merge_empty_identity () =
  for seed = 1 to 100 do
    let rng = Rng.create (2000 + seed) in
    let a = random_profile rng in
    let le = Profile.empty () in
    copy_into le a;
    check_equal (Printf.sprintf "seed %d: 0+A = A" seed) le a;
    copy_into a (Profile.empty ());
    check_equal (Printf.sprintf "seed %d: A+0 = A" seed) le a
  done

(* weighted merge = repeated merge: ~weight:w folds w occurrences *)
let test_weighted_merge () =
  for seed = 1 to 100 do
    let rng = Rng.create (3000 + seed) in
    let a = random_profile rng in
    let w = 2 + Rng.int rng 5 in
    let once = Profile.empty () in
    Profile.merge ~weight:w once a;
    let many = Profile.empty () in
    for _ = 1 to w do
      copy_into many a
    done;
    check_equal (Printf.sprintf "seed %d: ~weight:%d = %d merges" seed w w)
      once many
  done

(* every weight saturates at the cap instead of wrapping *)
let test_saturation () =
  for seed = 1 to 100 do
    let rng = Rng.create (4000 + seed) in
    let acc = Profile.empty () in
    for _ = 1 to 3 do
      Profile.merge ~weight:(1 + Rng.int rng 1_000_000) acc (random_profile rng)
    done;
    Hashtbl.iter
      (fun k v ->
        if v < 0 || v > Profile.cap then
          Alcotest.failf "seed %d: block %S weight %d out of [0, cap]" seed k v)
      acc.Profile.blocks;
    Hashtbl.iter
      (fun site t ->
        Hashtbl.iter
          (fun callee v ->
            if v < 0 || v > Profile.cap then
              Alcotest.failf "seed %d: %S -> %S count %d out of [0, cap]" seed
                site callee v)
          t)
      acc.Profile.calls
  done

(* the binary format round-trips exactly, and serialization is
   canonical: equal profiles produce identical bytes regardless of
   hash-table insertion order *)
let test_binary_round_trip () =
  for seed = 1 to 200 do
    let rng = Rng.create (5000 + seed) in
    let a = random_profile rng in
    let b = Profile.of_bytes (Profile.to_bytes a) in
    check_equal (Printf.sprintf "seed %d: of_bytes . to_bytes" seed) a b;
    (* rebuild the same contents in a different insertion order *)
    let c = Profile.empty () in
    copy_into c b;
    Alcotest.(check string)
      (Printf.sprintf "seed %d: canonical bytes" seed)
      (Profile.to_bytes a) (Profile.to_bytes c)
  done;
  (* corrupt inputs raise Corrupt, never return garbage; the last two
     once raised Invalid_argument (a string length near max_int) and
     Out_of_memory (a target count of 2^40) *)
  let p = random_profile (Rng.create 42) in
  let bytes = Profile.to_bytes p in
  let header ints =
    let b = Buffer.create 64 in
    Buffer.add_string b "LLPF\001";
    List.iter (fun n -> Buffer.add_int64_le b (Int64.of_int n)) ints;
    Buffer.contents b
  in
  List.iter
    (fun mangled ->
      match Profile.of_bytes mangled with
      | exception Profile.Corrupt _ -> ()
      | _ -> Alcotest.fail "corrupt profile accepted")
    [ ""; "LLPX" ^ String.sub bytes 4 (String.length bytes - 4);
      String.sub bytes 0 (String.length bytes - 1); bytes ^ "\x00";
      header [ 0; 1; max_int ]; header [ 0; 0; 1; 0; 1 lsl 40 ] ]

let test_save_load_file () =
  let file = Filename.temp_file "llpf_test" ".llpf" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let p = random_profile (Rng.create 7) in
      Profile.save file p;
      check_equal "save/load" p (Profile.load file))

let tests =
  [ Alcotest.test_case "merge is commutative" `Quick test_merge_commutative;
    Alcotest.test_case "merge is associative" `Quick test_merge_associative;
    Alcotest.test_case "empty profile is a merge identity" `Quick
      test_merge_empty_identity;
    Alcotest.test_case "weighted merge equals repeated merge" `Quick
      test_weighted_merge;
    Alcotest.test_case "weights saturate at the cap" `Quick test_saturation;
    Alcotest.test_case "binary format round-trips canonically" `Quick
      test_binary_round_trip;
    Alcotest.test_case "save/load round-trips through disk" `Quick
      test_save_load_file ]
