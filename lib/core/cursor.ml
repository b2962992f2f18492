(* The one bounded reader for untrusted bytes: bitcode images, wire
   messages and .llpf profiles all decode through it.

   Every bound is checked by subtraction ([n > length - pos]), so a
   hostile length near [max_int] cannot overflow the check.  A count
   (of elements that follow, each at least one byte long) must be
   non-negative and at most the bytes left; formats check it before
   allocating anything from it.  The [fail] closure maps a failure to
   the format's own exception and runs only on the error path. *)

type error =
  | Truncated
  | Truncated_string
  | Bad_count of int

type t = { src : string; mutable pos : int; fail : error -> exn }

let create ?(pos = 0) ~fail src = { src; pos; fail }

let remaining c = String.length c.src - c.pos
let at_end c = c.pos = String.length c.src

let byte c =
  let p = c.pos in
  if p >= String.length c.src then raise (c.fail Truncated);
  c.pos <- p + 1;
  Char.code (String.unsafe_get c.src p)

(* Claim [n] bytes for a fixed-width read; the offset they start at. *)
let fixed c n =
  let p = c.pos in
  if n > remaining c then raise (c.fail Truncated);
  c.pos <- p + n;
  p

let u32_be c =
  Int32.to_int (String.get_int32_be c.src (fixed c 4)) land 0xffff_ffff

let i64_be c = String.get_int64_be c.src (fixed c 8)
let i64_le c = String.get_int64_le c.src (fixed c 8)

let take c n =
  let p = c.pos in
  if n < 0 || n > remaining c then raise (c.fail Truncated_string);
  c.pos <- p + n;
  String.sub c.src p n

let count c n =
  if n < 0 then raise (c.fail (Bad_count n));
  if n > remaining c then raise (c.fail Truncated);
  n
