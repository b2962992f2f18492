(* Persistent execution profiles (paper section 3.5).

   One run of the instrumented engine yields raw block counts and
   indirect-call target counts keyed by in-memory ids.  Ids are
   process-local construction counters, so a profile that must survive
   the run — written to disk, shipped home from the field, merged with
   profiles of other runs of *other builds* of the same program — is
   keyed by stable names instead:

     block   key:  "<function>\t<block>"
     call    key:  "<function>\t<block>\t<k>"   (k-th call/invoke in block)
     target  key:  callee function name

   Weights saturate at [cap] instead of wrapping, so merging is
   commutative and associative: min over a sum of non-negative terms
   commutes.  [merge] applies a run-multiplicity weight first (a fleet
   aggregator that sampled one stored profile w times merges it once
   with [~weight:w]), which keeps the aggregate independent of the
   order profiles arrive in.

   The on-disk format is a little-endian binary with a magic/version
   header; [save]/[load] round-trip exactly ([suite_profile]). *)

open Llvm_ir
open Ir

(* Saturation cap: far above any real count, far below [max_int] so a
   weighted add of two capped values cannot overflow 63-bit ints. *)
let cap = 1 lsl 50

type t = {
  mutable runs : int;  (* runs aggregated into this profile *)
  blocks : (string, int) Hashtbl.t;  (* block key -> executions *)
  calls : (string, (string, int) Hashtbl.t) Hashtbl.t;
      (* call-site key -> callee name -> count *)
}

let empty () : t =
  { runs = 0; blocks = Hashtbl.create 64; calls = Hashtbl.create 16 }

let block_key ~func ~block = func ^ "\t" ^ block
let site_key ~func ~block ~index = Printf.sprintf "%s\t%s\t%d" func block index

let sat_add a b = if a + b >= cap || a + b < 0 then cap else a + b

let sat_scale w v =
  if w <= 0 || v <= 0 then 0
  else if v >= cap / w then cap
  else w * v

let bump tbl key w =
  if w > 0 then
    Hashtbl.replace tbl key
      (sat_add w (Option.value ~default:0 (Hashtbl.find_opt tbl key)))

(* -- Extraction from one instrumented run --------------------------------- *)

(* [of_run] converts the machine's id-keyed tables to name keys by
   walking the module the run executed.  Blocks and call sites the
   tables do not mention are simply absent (weight 0). *)
let of_run (m : modul) ~(block_counts : (int, int) Hashtbl.t)
    ~(call_counts : (int, (int, int) Hashtbl.t) Hashtbl.t) : t =
  let p = empty () in
  p.runs <- 1;
  let fname_of_fid = Hashtbl.create 32 in
  List.iter (fun f -> Hashtbl.replace fname_of_fid f.fid f.fname) m.mfuncs;
  List.iter
    (fun f ->
      List.iter
        (fun b ->
          (match Hashtbl.find_opt block_counts b.bid with
          | Some n when n > 0 ->
            bump p.blocks (block_key ~func:f.fname ~block:b.bname) n
          | _ -> ());
          let k = ref 0 in
          List.iter
            (fun i ->
              match i.iop with
              | Call | Invoke ->
                (match Hashtbl.find_opt call_counts i.iid with
                | Some targets ->
                  let key =
                    site_key ~func:f.fname ~block:b.bname ~index:!k
                  in
                  let per_site =
                    match Hashtbl.find_opt p.calls key with
                    | Some t -> t
                    | None ->
                      let t = Hashtbl.create 4 in
                      Hashtbl.replace p.calls key t;
                      t
                  in
                  Hashtbl.iter
                    (fun fid n ->
                      match Hashtbl.find_opt fname_of_fid fid with
                      | Some callee -> bump per_site callee n
                      | None -> ())
                    targets
                | None -> ());
                incr k
              | _ -> ())
            b.instrs)
        f.fblocks)
    m.mfuncs;
  p

(* -- Merging --------------------------------------------------------------- *)

let merge ?(weight = 1) (dst : t) (src : t) : unit =
  if weight > 0 then begin
    dst.runs <- sat_add dst.runs (sat_scale weight src.runs);
    Hashtbl.iter (fun k v -> bump dst.blocks k (sat_scale weight v)) src.blocks;
    Hashtbl.iter
      (fun site targets ->
        let per_site =
          match Hashtbl.find_opt dst.calls site with
          | Some t -> t
          | None ->
            let t = Hashtbl.create 4 in
            Hashtbl.replace dst.calls site t;
            t
        in
        Hashtbl.iter
          (fun callee n -> bump per_site callee (sat_scale weight n))
          targets)
      src.calls
  end

(* -- Queries --------------------------------------------------------------- *)

(* Transformed modules carry derived block names ([.spec], [.deopt],
   [.cont], inliner clones): a miss retries with the last dot-suffix
   stripped, so layout decisions for a speculated module can reuse the
   profile gathered on the original. *)
let block_weight (p : t) ~(func : string) ~(block : string) : int =
  let rec look block =
    match Hashtbl.find_opt p.blocks (block_key ~func ~block) with
    | Some w -> w
    | None -> (
      match String.rindex_opt block '.' with
      | Some k when k > 0 -> look (String.sub block 0 k)
      | _ -> 0)
  in
  look block

let func_weight (p : t) (f : func) : int =
  if is_declaration f then 0
  else block_weight p ~func:f.fname ~block:(entry_block f).bname

(* The hot-function ranking every report uses: [m]'s functions that ran,
   by entry weight, count descending and ties by name so reports are
   stable across runs. *)
let hot_functions (p : t) (m : modul) : (string * int) list =
  List.filter_map
    (fun f ->
      let n = func_weight p f in
      if n > 0 then Some (f.fname, n) else None)
    m.mfuncs
  |> List.sort (fun (na, a) (nb, b) -> if a <> b then compare b a else compare na nb)

(* Observed callees of a call site, hottest first (count desc, then
   name, so the choice is deterministic). *)
let call_targets (p : t) ~(func : string) ~(block : string) ~(index : int) :
    (string * int) list =
  match Hashtbl.find_opt p.calls (site_key ~func ~block ~index) with
  | None -> []
  | Some t ->
    Hashtbl.fold (fun callee n acc -> (callee, n) :: acc) t []
    |> List.sort (fun (n1, c1) (n2, c2) ->
           if c1 <> c2 then compare c2 c1 else compare n1 n2)

let runs (p : t) = p.runs
let block_entries (p : t) = Hashtbl.length p.blocks
let call_sites (p : t) = Hashtbl.length p.calls

let total_weight (p : t) : int =
  Hashtbl.fold (fun _ v acc -> sat_add acc v) p.blocks 0

let total_calls (p : t) : int =
  Hashtbl.fold
    (fun _ targets acc ->
      Hashtbl.fold (fun _ c acc -> sat_add acc c) targets acc)
    p.calls 0

(* Structural equality, for the merge property tests. *)
let equal (a : t) (b : t) : bool =
  let tbl_eq ta tb =
    Hashtbl.length ta = Hashtbl.length tb
    && Hashtbl.fold
         (fun k v acc -> acc && Hashtbl.find_opt tb k = Some v)
         ta true
  in
  a.runs = b.runs
  && tbl_eq a.blocks b.blocks
  && Hashtbl.length a.calls = Hashtbl.length b.calls
  && Hashtbl.fold
       (fun site ta acc ->
         acc
         &&
         match Hashtbl.find_opt b.calls site with
         | Some tb -> tbl_eq ta tb
         | None -> false)
       a.calls true

(* -- Binary format ---------------------------------------------------------- *)

(* LLPF, version byte, then three length-prefixed sections.  All
   integers are little-endian int64; strings are length-prefixed. *)

let magic = "LLPF"
let version = 1

exception Corrupt of string

let to_bytes (p : t) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf magic;
  Buffer.add_uint8 buf version;
  let add_int n = Buffer.add_int64_le buf (Int64.of_int n) in
  let add_str s =
    add_int (String.length s);
    Buffer.add_string buf s
  in
  (* sort sections so equal profiles serialize identically *)
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) tbl []) in
  add_int p.runs;
  let blocks = sorted p.blocks in
  add_int (List.length blocks);
  List.iter
    (fun (k, v) ->
      add_str k;
      add_int v)
    blocks;
  let calls =
    List.sort compare
      (Hashtbl.fold (fun k t a -> (k, sorted t) :: a) p.calls [])
  in
  add_int (List.length calls);
  List.iter
    (fun (site, targets) ->
      add_str site;
      add_int (List.length targets);
      List.iter
        (fun (callee, n) ->
          add_str callee;
          add_int n)
        targets)
    calls;
  Buffer.contents buf

let of_bytes (s : string) : t =
  let c = Cursor.create s ~fail:(fun _ -> Corrupt "truncated profile") in
  let get_int () =
    let v = Int64.to_int (Cursor.i64_le c) in
    if v < 0 then raise (Corrupt "negative count");
    v
  in
  (* Every entry a count announces takes at least sixteen bytes. *)
  let get_count () = Cursor.count c (get_int ()) in
  let get_str () = Cursor.take c (get_int ()) in
  let header = Cursor.take c (String.length magic + 1) in
  if String.sub header 0 4 <> magic then raise (Corrupt "bad magic");
  let v = Char.code header.[4] in
  if v <> version then raise (Corrupt (Printf.sprintf "unknown version %d" v));
  let p = empty () in
  p.runs <- get_int ();
  let nblocks = get_count () in
  for _ = 1 to nblocks do
    let k = get_str () in
    let n = get_int () in
    Hashtbl.replace p.blocks k n
  done;
  let ncalls = get_count () in
  for _ = 1 to ncalls do
    let site = get_str () in
    let ntargets = get_count () in
    let t = Hashtbl.create (max 4 ntargets) in
    for _ = 1 to ntargets do
      let callee = get_str () in
      let n = get_int () in
      Hashtbl.replace t callee n
    done;
    Hashtbl.replace p.calls site t
  done;
  if not (Cursor.at_end c) then raise (Corrupt "trailing bytes");
  p

let save (path : string) (p : t) : unit =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_bytes p))

let load (path : string) : t =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_bytes (really_input_string ic (in_channel_length ic)))

let pp fmt (p : t) =
  Fmt.pf fmt "profile: %d runs, %d blocks, %d call sites, total weight %d"
    p.runs (block_entries p) (call_sites p) (total_weight p)
