(* The bitcode container format (paper section 2.5 / 4.1.3).

   Layout:
     magic "LLVM"  version:u8
     type table    count:varint, then each type as a tagged record
     globals       count, then {name, flags, type-idx, init const?}
     functions     count, then {name, ret-type-idx, param-type-idxs,
                    varargs, linkage, body?}
   A function body carries a value pool (the constants and module-level
   objects its instructions reference) followed by basic blocks of
   instructions.

   Instructions use a one-word form whenever opcode, type index and
   operand ids all fit (the paper: "most instructions require only a
   single 32-bit word each").  bits 31-30 select the layout, bits 29-24
   hold the opcode:

     tag 0  zero operands;   type in bits 23-16
     tag 1  one operand;     type in bits 23-16, id in bits 15-0
     tag 2  two operands;    type in bits 23-16, ids in bits 15-8, 7-0
     tag 3  three operands;  type in bits 23-18, ids in 17-12, 11-6, 5-0

   Instruction words are stored big-endian so the first byte carries the
   tag and opcode.  The escape to the wide form is tag 0 with the
   reserved opcode 63 (first byte 0x3F): that byte is followed by the
   real opcode byte and varint-encoded type index, operand count and
   operand ids ("a 64-bit or larger encoding, as needed", section
   4.1.3). *)

exception Malformed of string

let wide_escape_opcode = 63

let magic = "LLVM"
let version = 1

(* type record tags *)
let t_void = 0
let t_bool = 1
let t_integer = 2 (* + kind byte *)
let t_float = 3
let t_double = 4
let t_pointer = 5 (* + pointee idx *)
let t_array = 6 (* + length, elt idx *)
let t_struct = 7 (* + count, field idxs *)
let t_function = 8 (* + ret idx, varargs byte, count, param idxs *)
let t_named = 9 (* + name *)
let t_opaque = 10 (* + name *)

(* constant tags *)
let c_bool_false = 0
let c_bool_true = 1
let c_int = 2 (* + type idx + zigzag varint *)
let c_float = 3 (* + type idx + 8 bytes *)
let c_null = 4 (* + type idx *)
let c_undef = 5
let c_zero = 6
let c_array = 7 (* + elt type idx + count + consts *)
let c_struct = 8 (* + type idx + count + consts *)
let c_gvar = 9 (* + module global index *)
let c_func = 10 (* + module function index *)
let c_cast = 11 (* + type idx + const *)

(* value-pool entry tags (per-function operand sources) *)
let v_const = 0
let v_global = 1
let v_function = 2

let opcode_code (op : Llvm_ir.Ir.opcode) : int =
  let rec index k = function
    | [] -> assert false
    | o :: _ when o = op -> k
    | _ :: rest -> index (k + 1) rest
  in
  index 0 Llvm_ir.Ir.all_opcodes

let opcode_of_code (k : int) : Llvm_ir.Ir.opcode =
  match List.nth_opt Llvm_ir.Ir.all_opcodes k with
  | Some op -> op
  | None -> raise (Malformed (Printf.sprintf "bad opcode %d" k))

let int_kind_code : Llvm_ir.Ltype.int_kind -> int = function
  | Sbyte -> 0
  | Ubyte -> 1
  | Short -> 2
  | Ushort -> 3
  | Int -> 4
  | Uint -> 5
  | Long -> 6
  | Ulong -> 7

let int_kind_of_code : int -> Llvm_ir.Ltype.int_kind = function
  | 0 -> Sbyte
  | 1 -> Ubyte
  | 2 -> Short
  | 3 -> Ushort
  | 4 -> Int
  | 5 -> Uint
  | 6 -> Long
  | 7 -> Ulong
  | k -> raise (Malformed (Printf.sprintf "bad integer kind %d" k))

(* -- primitive writers ---------------------------------------------------- *)

let write_varint (b : Buffer.t) (v : int) =
  let rec go v =
    if v < 0x80 then Buffer.add_char b (Char.chr v)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (v land 0x7F)));
      go (v lsr 7)
    end
  in
  if v < 0 then invalid_arg "write_varint: negative";
  go v

let zigzag (v : int64) : int64 =
  Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63)

let unzigzag (v : int64) : int64 =
  Int64.logxor (Int64.shift_right_logical v 1) (Int64.neg (Int64.logand v 1L))

let write_varint64 (b : Buffer.t) (v : int64) =
  let rec go v =
    if Int64.unsigned_compare v 0x80L < 0 then
      Buffer.add_char b (Char.chr (Int64.to_int v))
    else begin
      Buffer.add_char b
        (Char.chr (0x80 lor Int64.to_int (Int64.logand v 0x7FL)));
      go (Int64.shift_right_logical v 7)
    end
  in
  go v

let write_string (b : Buffer.t) (s : string) =
  write_varint b (String.length s);
  Buffer.add_string b s

let write_f64 (b : Buffer.t) (f : float) =
  Buffer.add_int64_le b (Int64.bits_of_float f)

(* -- primitive readers ------------------------------------------------------ *)

module Cursor = Llvm_ir.Cursor

let malformed : Cursor.error -> exn = function
  | Truncated -> Malformed "truncated"
  | Truncated_string -> Malformed "truncated string"
  | Bad_count n -> Malformed (Printf.sprintf "bad count %d" n)

let read_varint (r : Cursor.t) : int =
  let rec go shift acc =
    let c = Cursor.byte r in
    let acc = acc lor ((c land 0x7F) lsl shift) in
    if c land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

let read_varint64 (r : Cursor.t) : int64 =
  let rec go shift acc =
    let c = Cursor.byte r in
    let acc = Int64.logor acc (Int64.shift_left (Int64.of_int (c land 0x7F)) shift) in
    if c land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0L

(* Every count in the format is followed by that many elements of at
   least one byte each, so [Cursor.count] bounds it by the bytes left. *)
let read_count (r : Cursor.t) : int = Cursor.count r (read_varint r)

let read_string (r : Cursor.t) : string = Cursor.take r (read_varint r)
