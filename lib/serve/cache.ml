(* The sharded, content-addressed pass-result cache.

   Keys are strings built by the server from a module's canonical
   content digest plus the pipeline spec; values are opaque byte
   strings (optimized bitcode, lint reports).  A key hashes — with our
   own FNV-1a, so shard assignment is stable across OCaml versions and
   processes — to one of N shards; each shard is an independent
   hashtable plus an intrusive doubly-linked LRU list under a byte
   budget.  Sharding keeps per-shard lists short and is the seam a
   future multi-threaded daemon would lock per shard.

   Eviction is bytes-based: a put that pushes a shard over budget
   evicts least-recently-used entries until it fits.  Values larger
   than a whole shard are never admitted (counted as [oversize]).

   Every entry stores an MD5 of its value, verified on each hit: a
   corrupted entry (bit rot, or an injected [Faults.corrupt]) is
   dropped and reported as a miss, so the server recomputes and
   re-installs a good copy instead of serving garbage. *)

type node = {
  nkey : string;
  mutable value : string;
  mutable sum : string; (* MD5 of [value] at put time *)
  mutable prev : node option;
  mutable next : node option;
}

type shard = {
  tbl : (string, node) Hashtbl.t;
  mutable mru : node option;
  mutable lru : node option;
  mutable bytes : int;
  budget : int;
  mutable hits : int;
  mutable misses : int;
  mutable puts : int;
  mutable evictions : int;
  mutable oversize : int;
  mutable corrupt : int;
}

type t = { shards : shard array }

let default_shards = 8
let default_shard_bytes = 8 * 1024 * 1024

let create ?(shards = default_shards) ?(shard_bytes = default_shard_bytes) ()
    : t =
  let shards = max 1 shards in
  { shards =
      Array.init shards (fun _ ->
          { tbl = Hashtbl.create 64; mru = None; lru = None; bytes = 0;
            budget = max 1 shard_bytes; hits = 0; misses = 0; puts = 0;
            evictions = 0; oversize = 0; corrupt = 0 }) }

(* FNV-1a 64: deterministic, portable, good spread on hex digests. *)
let fnv1a (s : string) : int =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun ch ->
      h := Int64.logxor !h (Int64.of_int (Char.code ch));
      h := Int64.mul !h 0x100000001b3L)
    s;
  (* the final [land max_int] keeps the value non-negative on 32-bit
     OCaml too, where [Int64.to_int] truncates to a 31-bit native int —
     a negative hash would make [shard_of]'s [mod] index out of bounds *)
  Int64.to_int (Int64.logand !h 0x3FFFFFFFFFFFFFFFL) land max_int

let shard_of (c : t) (key : string) : int = fnv1a key mod Array.length c.shards

(* -- LRU list maintenance --------------------------------------------------- *)

let unlink (s : shard) (n : node) : unit =
  (match n.prev with Some p -> p.next <- n.next | None -> s.mru <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> s.lru <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front (s : shard) (n : node) : unit =
  n.next <- s.mru;
  n.prev <- None;
  (match s.mru with Some m -> m.prev <- Some n | None -> s.lru <- Some n);
  s.mru <- Some n

let evict_lru (s : shard) : unit =
  match s.lru with
  | None -> ()
  | Some n ->
    unlink s n;
    Hashtbl.remove s.tbl n.nkey;
    s.bytes <- s.bytes - String.length n.value;
    s.evictions <- s.evictions + 1

(* -- Operations ------------------------------------------------------------- *)

let drop (s : shard) (n : node) : unit =
  unlink s n;
  Hashtbl.remove s.tbl n.nkey;
  s.bytes <- s.bytes - String.length n.value

let find (c : t) (key : string) : string option =
  let s = c.shards.(shard_of c key) in
  match Hashtbl.find_opt s.tbl key with
  | Some n ->
    (* injected bit rot, when a chaos plan is installed *)
    (match Faults.corrupt n.value with
    | Some garbled -> n.value <- garbled
    | None -> ());
    if Digest.string n.value <> n.sum then begin
      (* integrity failure: self-heal by dropping the entry; the
         caller recomputes and re-installs a good copy *)
      s.corrupt <- s.corrupt + 1;
      s.misses <- s.misses + 1;
      drop s n;
      None
    end
    else begin
      s.hits <- s.hits + 1;
      unlink s n;
      push_front s n;
      Some n.value
    end
  | None ->
    s.misses <- s.misses + 1;
    None

let put (c : t) (key : string) (value : string) : unit =
  let s = c.shards.(shard_of c key) in
  let size = String.length value in
  if size > s.budget then s.oversize <- s.oversize + 1
  else begin
    s.puts <- s.puts + 1;
    (match Hashtbl.find_opt s.tbl key with
    | Some n ->
      s.bytes <- s.bytes - String.length n.value + size;
      n.value <- value;
      n.sum <- Digest.string value;
      unlink s n;
      push_front s n
    | None ->
      let n =
        { nkey = key; value; sum = Digest.string value; prev = None;
          next = None }
      in
      Hashtbl.replace s.tbl key n;
      s.bytes <- s.bytes + size;
      push_front s n);
    while s.bytes > s.budget do
      evict_lru s
    done
  end

let remove (c : t) (key : string) : unit =
  let s = c.shards.(shard_of c key) in
  match Hashtbl.find_opt s.tbl key with
  | Some n -> drop s n
  | None -> ()

(* -- Statistics ------------------------------------------------------------- *)

type shard_stats = {
  s_entries : int;
  s_bytes : int;
  s_budget : int;
  s_hits : int;
  s_misses : int;
  s_puts : int;
  s_evictions : int;
  s_oversize : int;
  s_corrupt : int;
}

let shard_stats (c : t) : shard_stats array =
  Array.map
    (fun s ->
      { s_entries = Hashtbl.length s.tbl; s_bytes = s.bytes;
        s_budget = s.budget; s_hits = s.hits; s_misses = s.misses;
        s_puts = s.puts; s_evictions = s.evictions; s_oversize = s.oversize;
        s_corrupt = s.corrupt })
    c.shards

let total (c : t) (f : shard -> int) : int =
  Array.fold_left (fun acc s -> acc + f s) 0 c.shards

let hits c = total c (fun s -> s.hits)
let corrupt c = total c (fun s -> s.corrupt)
let misses c = total c (fun s -> s.misses)
let evictions c = total c (fun s -> s.evictions)
let entries c = total c (fun s -> Hashtbl.length s.tbl)
let bytes c = total c (fun s -> s.bytes)

let hit_rate (c : t) : float =
  let h = hits c and m = misses c in
  if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)

(* Test hook: one shard's keys, most-recently-used first. *)
let keys_mru_first (c : t) (shard : int) : string list =
  let rec walk acc = function
    | None -> List.rev acc
    | Some n -> walk (n.nkey :: acc) n.next
  in
  walk [] c.shards.(shard).mru
