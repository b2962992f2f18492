(* Simulated byte-addressed memory for the execution engine.

   Addresses are int64 values packing an allocation id in the high bits
   and a byte offset in the low 32: the machine therefore has real
   pointer *values* (casts to/from integers work), while loads and stores
   check liveness and bounds like a safe malloc implementation.  Function
   addresses live in a reserved id range so that indirect calls can map
   an address back to a function.  A freed or released block keeps its id
   but not its bytes. *)

exception Trap of string

let trap fmt = Fmt.kstr (fun s -> raise (Trap s)) fmt

type alloc = {
  bytes : Bytes.t;
  live : bool;
  on_stack : bool;
}

(* Allocation ids are handed out sequentially, so the allocation table
   is a growable array indexed by id (slot 0 unused): [locate], the
   load/store hot path, is a bounds check plus an array read.  Ids are
   never reused, so no address a program can observe changes; freeing
   or releasing a block overwrites its slot with one of the shared
   sentinels below, which lets its bytes be collected while every later
   access or free traps exactly as the dead block would. *)
type t = {
  mutable allocs : alloc array;
  mutable next_id : int;
}

let func_id_base = 0x400000 (* allocation ids at/above this denote code *)

let freed_heap = { bytes = Bytes.empty; live = false; on_stack = false }
let freed_stack = { bytes = Bytes.empty; live = false; on_stack = true }

let create () = { allocs = Array.make 256 freed_heap; next_id = 1 }

let find_alloc (m : t) (id : int) : alloc option =
  if id > 0 && id < m.next_id then Some (Array.unsafe_get m.allocs id)
  else None

let addr_of ~id ~offset = Int64.logor (Int64.shift_left (Int64.of_int id) 32) (Int64.of_int offset)
let id_of addr = Int64.to_int (Int64.shift_right_logical addr 32)
let offset_of addr = Int64.to_int (Int64.logand addr 0xFFFFFFFFL)

let is_null addr = addr = 0L
let is_func_addr addr = id_of addr >= func_id_base

let alloc (m : t) ?(on_stack = false) (size : int) : int64 =
  let id = m.next_id in
  m.next_id <- m.next_id + 1;
  if id >= func_id_base then trap "out of memory: too many allocations";
  if id >= Array.length m.allocs then begin
    let bigger = Array.make (2 * Array.length m.allocs) freed_heap in
    Array.blit m.allocs 0 bigger 0 (Array.length m.allocs);
    m.allocs <- bigger
  end;
  m.allocs.(id) <-
    { bytes = Bytes.make (max size 0) '\000'; live = true; on_stack };
  addr_of ~id ~offset:0

let free (m : t) (addr : int64) : unit =
  if is_null addr then () (* free(null) is a no-op *)
  else begin
    let id = id_of addr in
    match find_alloc m id with
    | Some a when a.live && not a.on_stack ->
      if offset_of addr <> 0 then trap "free of interior pointer";
      m.allocs.(id) <- freed_heap
    | Some a when a.on_stack -> trap "free of stack memory"
    | Some _ -> trap "double free"
    | None -> trap "free of invalid pointer %Lx" addr
  end

(* Release a stack allocation on function return. *)
let release_stack (m : t) (addr : int64) : unit =
  let id = id_of addr in
  if id > 0 && id < m.next_id then m.allocs.(id) <- freed_stack

(* The bytes of the live allocation [addr] points into, after checking
   that [len] bytes from its offset are in bounds.  The offset is
   [offset_of addr]: returning only the bytes saves the load/store hot
   path a tuple per access. *)
let locate (m : t) (addr : int64) (len : int) : Bytes.t =
  if is_null addr then trap "null pointer dereference";
  if is_func_addr addr then trap "data access to a code address";
  let id = id_of addr and off = offset_of addr in
  if id <= 0 || id >= m.next_id then trap "access to invalid pointer %Lx" addr;
  let a = Array.unsafe_get m.allocs id in
  if not a.live then trap "use after free";
  if off < 0 || off + len > Bytes.length a.bytes then
    trap "out-of-bounds access: offset %d len %d in %d-byte object" off len
      (Bytes.length a.bytes)
  else a.bytes

(* Widths of 4 bytes or fewer read and write immediate ints ("words"),
   zero-extended, so the bytecode tier's word registers reach memory
   without boxing an int64; the int64 accessors use them for those
   widths. *)
let get_word (b : Bytes.t) (off : int) ~(size : int) : int =
  match size with
  | 1 -> Char.code (Bytes.get b off)
  | 2 -> Bytes.get_uint16_le b off
  | _ -> Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF

let set_word (b : Bytes.t) (off : int) ~(size : int) (v : int) : unit =
  match size with
  | 1 -> Bytes.set b off (Char.unsafe_chr (v land 0xFF))
  | 2 -> Bytes.set_uint16_le b off (v land 0xFFFF)
  | _ -> Bytes.set_int32_le b off (Int32.of_int v)

let get_int (b : Bytes.t) (off : int) ~(size : int) : int64 =
  match size with
  | 1 | 2 | 4 -> Int64.of_int (get_word b off ~size)
  | 8 -> Bytes.get_int64_le b off
  | _ ->
    let rec go k acc =
      if k = size then acc
      else
        go (k + 1)
          (Int64.logor acc
             (Int64.shift_left (Int64.of_int (Char.code (Bytes.get b (off + k)))) (8 * k)))
    in
    go 0 0L

let set_int (b : Bytes.t) (off : int) ~(size : int) (v : int64) : unit =
  match size with
  | 1 | 2 | 4 -> set_word b off ~size (Int64.to_int v)
  | 8 -> Bytes.set_int64_le b off v
  | _ ->
    for k = 0 to size - 1 do
      Bytes.set b (off + k)
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xFFL)))
    done

let read_int (m : t) (addr : int64) ~(size : int) : int64 =
  get_int (locate m addr size) (offset_of addr) ~size

let write_int (m : t) (addr : int64) ~(size : int) (v : int64) : unit =
  set_int (locate m addr size) (offset_of addr) ~size v

let read_word (m : t) (addr : int64) ~(size : int) : int =
  get_word (locate m addr size) (offset_of addr) ~size

let write_word (m : t) (addr : int64) ~(size : int) (v : int) : unit =
  set_word (locate m addr size) (offset_of addr) ~size v

(* Read a NUL-terminated string (for the print_str builtin). *)
let read_cstring (m : t) (addr : int64) : string =
  let buf = Buffer.create 16 in
  let rec go k =
    let c = Int64.to_int (read_int m (Int64.add addr (Int64.of_int k)) ~size:1) in
    if c <> 0 then begin
      Buffer.add_char buf (Char.chr c);
      go (k + 1)
    end
  in
  go 0;
  Buffer.contents buf

let is_live (m : t) (addr : int64) : bool =
  match find_alloc m (id_of addr) with
  | Some a -> a.live
  | None -> false
