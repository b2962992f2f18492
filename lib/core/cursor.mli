(** The one bounded reader for untrusted bytes.

    Bitcode, wire messages and [.llpf] profiles read through a cursor
    over an immutable string.  Every read checks its bound first and,
    when the input is too short, raises the exception the format
    declares, built by the [fail] closure given at creation. *)

(** Why a read failed; each format maps these to its own messages. *)
type error =
  | Truncated  (** a fixed-width read or a count ran past the end *)
  | Truncated_string  (** a length-prefixed string ran past the end *)
  | Bad_count of int  (** a negative count *)

type t

(** [create ?pos ~fail src] reads [src] from offset [pos] (default 0). *)
val create : ?pos:int -> fail:(error -> exn) -> string -> t

(** Bytes left to read. *)
val remaining : t -> int

val at_end : t -> bool

(** One unsigned byte. *)
val byte : t -> int

(** Fixed-width integers: an unsigned big-endian 32-bit value, and
    64-bit values in either byte order. *)
val u32_be : t -> int

val i64_be : t -> int64
val i64_le : t -> int64

(** [take c n] is the next [n] bytes; fails with [Truncated_string] when
    [n] is negative or more than the bytes left. *)
val take : t -> int -> string

(** [count c n] returns [n] when it is a plausible count of elements of
    at least one byte each: [Bad_count n] when negative, [Truncated] when
    more than the bytes left.  Check a count before allocating from it. *)
val count : t -> int -> int
