(** The language-independent type system (paper section 2.2).

    Primitive types have predefined sizes; the four derived types are
    pointers, arrays, structures and functions.  Recursive types are
    expressed with {!Named} references resolved through a per-module
    {!table}. *)

(** The eight integer kinds: signed/unsigned at 8, 16, 32 and 64 bits. *)
type int_kind =
  | Sbyte
  | Ubyte
  | Short
  | Ushort
  | Int
  | Uint
  | Long
  | Ulong

type t =
  | Void
  | Bool
  | Integer of int_kind
  | Float
  | Double
  | Pointer of t
  | Array of int * t  (** fixed length, element type *)
  | Struct of t list
  | Function of t * t list * bool  (** return, parameters, varargs *)
  | Named of string  (** reference into a {!table}; allows recursion *)
  | Opaque of string  (** forward-declared type with unknown body *)

(** A mapping from the names used by {!Named} to their definitions. *)
type table = (string, t) Hashtbl.t

val create_table : unit -> table

(** {1 Convenient constructors} *)

val void : t
val bool_ : t
val sbyte : t
val ubyte : t
val short : t
val ushort : t
val int_ : t
val uint : t
val long : t
val ulong : t
val float_ : t
val double : t
val pointer : t -> t
val array : int -> t -> t
val struct_ : t list -> t
val func : ?varargs:bool -> t -> t list -> t

(** {1 Classification} *)

val is_signed : int_kind -> bool

(** Bit width of an integer kind (8, 16, 32 or 64). *)
val int_bits : int_kind -> int

val is_integer : t -> bool
val is_arithmetic : t -> bool

(** First-class values can live in SSA registers: bool, integers,
    floats and pointers (paper section 2.1). *)
val is_first_class : t -> bool

(** Raised when a {!Named} or {!Opaque} type has no definition in the
    table being consulted. *)
exception Unresolved of string

(** Follow [Named] links until a structural constructor appears.
    @raise Unresolved when a name has no definition, or its definitions
    form a cycle of names. *)
val resolve : table -> t -> t

(** {1 Size and layout}

    A conventional 64-bit layout: pointers are 8 bytes and structs pad
    each field to its alignment.  The code generators, the execution
    engine and constant-offset folding all share this model. *)

val align_of : table -> t -> int
val round_up : int -> int -> int
val size_of : table -> t -> int

(** Byte offset of field [idx] within a struct type. *)
val field_offset : table -> t -> int -> int

(** Type of field [idx] within a struct type. *)
val field_type : table -> t -> int -> t

(** Structural equality up to [Named] resolution; recursive types
    compare without divergence. *)
val equal : table -> t -> t -> bool

(** {1 Printing} *)

val string_of_int_kind : int_kind -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string
