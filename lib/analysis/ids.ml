(* Tables keyed by the integer ids of IR entities ([iid], [bid], [fid],
   [aid]).  Ids come from one counter, so an id spreads keys evenly by
   itself and is used as its own hash: no hashing call per lookup. *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* A dense numbering of ids: the n-th distinct id added gets number n.
   The table lives in flat int arrays, hashed by the id itself, so
   adding and finding allocate nothing. *)
module Numbering = struct
  type t = {
    head : int array;  (** bucket -> last number added to it, or -1 *)
    ids : int array;  (** number -> id *)
    next : int array;  (** number -> previous number in its bucket, or -1 *)
    mutable count : int;
  }

  (* room for [n] ids *)
  let create n =
    let buckets = ref 16 in
    while !buckets < n do
      buckets := 2 * !buckets
    done;
    { head = Array.make !buckets (-1); ids = Array.make n 0; next = Array.make n (-1); count = 0 }

  let count t = t.count

  let rec chain t id k = if k < 0 || t.ids.(k) = id then k else chain t id t.next.(k)

  (* -1 when [id] has no number *)
  let find t id = chain t id t.head.(id land (Array.length t.head - 1))

  (* numbers [id]; false when it has a number already *)
  let add t id =
    find t id < 0
    && begin
         let b = id land (Array.length t.head - 1) in
         t.ids.(t.count) <- id;
         t.next.(t.count) <- t.head.(b);
         t.head.(b) <- t.count;
         t.count <- t.count + 1;
         true
       end
end
