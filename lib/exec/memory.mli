(** Simulated byte-addressed memory for the execution engine.

    Addresses are int64 values packing an allocation id (high 32 bits)
    and a byte offset (low 32): pointers are real values — casts to and
    from integers work — while every access checks liveness and bounds
    like a safe malloc implementation.  Allocation ids at or above
    {!func_id_base} denote code addresses for indirect calls.  Ids are
    never reused; a freed or released block's bytes are dropped. *)

exception Trap of string

(** Raise {!Trap} with a formatted message. *)
val trap : ('a, Format.formatter, unit, 'b) format4 -> 'a

type t

val func_id_base : int
val create : unit -> t
val addr_of : id:int -> offset:int -> int64
val id_of : int64 -> int
val offset_of : int64 -> int
val is_null : int64 -> bool
val is_func_addr : int64 -> bool

(** Allocate [size] zeroed bytes; stack allocations are released on
    function return rather than freed. *)
val alloc : t -> ?on_stack:bool -> int -> int64

(** [free] checks for double frees, interior pointers and stack memory;
    freeing null is a no-op. *)
val free : t -> int64 -> unit

val release_stack : t -> int64 -> unit

(** Little-endian fixed-width integer accessors. *)
val read_int : t -> int64 -> size:int -> int64

val write_int : t -> int64 -> size:int -> int64 -> unit

(** The same for widths of 1, 2 or 4 bytes, on immediate ints: a read
    zero-extends, a write keeps the low [8 * size] bits.  Neither
    allocates. *)
val read_word : t -> int64 -> size:int -> int

val write_word : t -> int64 -> size:int -> int -> unit

(** Read a NUL-terminated string (for the print_str builtin). *)
val read_cstring : t -> int64 -> string

(** Is the allocation containing this address still live? *)
val is_live : t -> int64 -> bool
