(* The language-independent type system (paper section 2.2).

   Primitive types have predefined sizes; the four derived types are
   pointers, arrays, structures and functions.  Recursive types (e.g. a
   linked-list node containing a pointer to itself) are expressed with
   [Named] references that a module's type table resolves; [Opaque] stands
   for a forward-declared type whose body is not (yet) known. *)

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
  | Array of int * t
  | Struct of t list
  | Function of t * t list * bool (* return, params, varargs *)
  | Named of string
  | Opaque of string

(* A type table maps the names used by [Named] to their definitions.  Both
   modules and stand-alone tools carry one. *)
type table = (string, t) Hashtbl.t

let create_table () : table = Hashtbl.create 16

(* -- Convenient aliases ------------------------------------------------ *)

let void = Void
let bool_ = Bool
let sbyte = Integer Sbyte
let ubyte = Integer Ubyte
let short = Integer Short
let ushort = Integer Ushort
let int_ = Integer Int
let uint = Integer Uint
let long = Integer Long
let ulong = Integer Ulong
let float_ = Float
let double = Double
let pointer t = Pointer t
let array n t = Array (n, t)
let struct_ fields = Struct fields
let func ?(varargs = false) ret params = Function (ret, params, varargs)

(* -- Classification ---------------------------------------------------- *)

let is_signed = function
  | Sbyte | Short | Int | Long -> true
  | Ubyte | Ushort | Uint | Ulong -> false

let int_bits = function
  | Sbyte | Ubyte -> 8
  | Short | Ushort -> 16
  | Int | Uint -> 32
  | Long | Ulong -> 64

let is_integer = function Integer _ -> true | _ -> false

let is_arithmetic = function
  | Integer _ | Float | Double -> true
  | Void | Bool | Pointer _ | Array _ | Struct _ | Function _ | Named _
  | Opaque _ ->
    false

let is_first_class = function
  | Bool | Integer _ | Float | Double | Pointer _ -> true
  | Void | Array _ | Struct _ | Function _ | Named _ | Opaque _ -> false

exception Unresolved of string

(* Follow [Named] links until a structural type appears.  A chain with
   more links than the table has entries is a cycle ([%T = %T]), which
   resolves no better than an undefined name. *)
let rec resolve_within (table : table) links t =
  match t with
  | Named n -> (
    match Hashtbl.find_opt table n with
    | Some t' when links > 0 -> resolve_within table (links - 1) t'
    | _ -> raise (Unresolved n))
  | t -> t

let resolve (table : table) t = resolve_within table (Hashtbl.length table) t

(* -- Size and alignment model ------------------------------------------

   A conventional 64-bit layout: pointers are 8 bytes, structs are padded
   so each field sits at a multiple of its alignment, and the struct is
   padded to a multiple of its own alignment.  The code generators, the
   execution engine and getelementptr constant folding all share this
   model. *)

let rec align_of table t =
  match resolve table t with
  | Void -> 1
  | Bool -> 1
  | Integer k -> int_bits k / 8
  | Float -> 4
  | Double -> 8
  | Pointer _ | Function _ -> 8
  | Array (_, elt) -> align_of table elt
  | Struct fields ->
    List.fold_left (fun a f -> max a (align_of table f)) 1 fields
  | Named n | Opaque n -> raise (Unresolved n)

let round_up n a = (n + a - 1) / a * a

let rec size_of table t =
  match resolve table t with
  | Void -> 0
  | Bool -> 1
  | Integer k -> int_bits k / 8
  | Float -> 4
  | Double -> 8
  | Pointer _ | Function _ -> 8
  | Array (n, elt) -> n * size_of table elt
  | Struct fields ->
    let body =
      List.fold_left
        (fun off f -> round_up off (align_of table f) + size_of table f)
        0 fields
    in
    round_up body (align_of table (Struct fields))
  | Named n | Opaque n -> raise (Unresolved n)

(* Byte offset of field [idx] within struct type [t]. *)
let field_offset table t idx =
  match resolve table t with
  | Struct fields ->
    let rec go i off = function
      | [] -> invalid_arg "Ltype.field_offset: index out of range"
      | f :: rest ->
        let off = round_up off (align_of table f) in
        if i = idx then off else go (i + 1) (off + size_of table f) rest
    in
    go 0 0 fields
  | _ -> invalid_arg "Ltype.field_offset: not a struct"

let field_type table t idx =
  match resolve table t with
  | Struct fields -> (
    match List.nth_opt fields idx with
    | Some f -> f
    | None -> invalid_arg "Ltype.field_type: index out of range")
  | _ -> invalid_arg "Ltype.field_type: not a struct"

(* -- Structural equality up to Named resolution ------------------------

   Uses an assumption set so that recursive types compare without
   divergence: once we assume [Named a = Named b] we do not re-expand.
   Physically equal types are equal without building the set; the
   bitcode decoder shares each type through its type table, so most of
   the verifier's comparisons on a decoded module stop there.  So are
   structurally identical ones, which [eq] would accept node by node:
   the front end and the passes build [int] afresh at each use. *)
let equal table a b =
  a == b || a = b ||
  let assumed = Hashtbl.create 8 in
  let rec eq a b =
    match (a, b) with
    | Named x, Named y when x = y -> true
    | (Named _, _ | _, Named _) -> (
      let key =
        match (a, b) with
        | Named x, Named y -> Some (x, y)
        | _ -> None
      in
      match key with
      | Some k when Hashtbl.mem assumed k -> true
      | _ ->
        (match key with Some k -> Hashtbl.replace assumed k () | None -> ());
        eq (resolve table a) (resolve table b))
    | Void, Void | Bool, Bool | Float, Float | Double, Double -> true
    | Integer k1, Integer k2 -> k1 = k2
    | Pointer t1, Pointer t2 -> eq t1 t2
    | Array (n1, t1), Array (n2, t2) -> n1 = n2 && eq t1 t2
    | Struct f1, Struct f2 ->
      List.length f1 = List.length f2 && List.for_all2 eq f1 f2
    | Function (r1, p1, v1), Function (r2, p2, v2) ->
      v1 = v2 && eq r1 r2
      && List.length p1 = List.length p2
      && List.for_all2 eq p1 p2
    | Opaque x, Opaque y -> x = y
    | ( ( Void | Bool | Integer _ | Float | Double | Pointer _ | Array _
        | Struct _ | Function _ | Opaque _ ),
        _ ) ->
      false
  in
  eq a b

(* -- Printing (the plain-text representation of section 2.5) ----------- *)

let string_of_int_kind = function
  | Sbyte -> "sbyte"
  | Ubyte -> "ubyte"
  | Short -> "short"
  | Ushort -> "ushort"
  | Int -> "int"
  | Uint -> "uint"
  | Long -> "long"
  | Ulong -> "ulong"

let rec pp fmt t =
  match t with
  | Void -> Fmt.string fmt "void"
  | Bool -> Fmt.string fmt "bool"
  | Integer k -> Fmt.string fmt (string_of_int_kind k)
  | Float -> Fmt.string fmt "float"
  | Double -> Fmt.string fmt "double"
  | Pointer t -> Fmt.pf fmt "%a*" pp t
  | Array (n, t) -> Fmt.pf fmt "[%d x %a]" n pp t
  | Struct fields -> Fmt.pf fmt "{ %a }" Fmt.(list ~sep:(any ", ") pp) fields
  | Function (ret, params, varargs) ->
    Fmt.pf fmt "%a (%a%s)" pp ret
      Fmt.(list ~sep:(any ", ") pp)
      params
      (if varargs then if params = [] then "..." else ", ..." else "")
  | Named n -> Fmt.pf fmt "%%%s" n
  | Opaque n -> Fmt.pf fmt "opaque.%s" n

let to_string t = Fmt.str "%a" pp t
