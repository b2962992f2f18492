(* Bitcode encoder: in-memory module -> compact binary image.

   Section order is chosen so the decoder never needs forward
   references: types, global headers, function headers, named-type
   definitions, global initializers (may reference functions — vtables),
   then function bodies.

   Interning keys.  The type table is keyed on [Ltype.t] itself, which
   partitions types as their printed form does ([Named] and [Opaque]
   print differently).  Each function body numbers its operands through
   one int-keyed table per value kind (argument, instruction and block
   ids; global and function ids for pooled references) and pools
   constants by [const_key].

   Byte identity.  The image is the content identity behind cache keys
   and [Digest.of_module], so these keys decide nothing but lookup
   speed: which operands share a pool entry, and the order of every
   table, must stay exactly as they are.  test/suite_bitcode.ml pins the
   bytes of a fixed corpus with golden MD5s. *)

open Llvm_ir
open Ir
open Format

type stats = {
  mutable one_word_instrs : int;
  mutable wide_instrs : int;
  mutable pool_entries : int;
  mutable total_bytes : int;
}

type enc = {
  buf : Buffer.t;
  mtypes : Ltype.table;
  types : (Ltype.t, int) Hashtbl.t; (* type -> index *)
  type_records : Buffer.t;
  mutable type_count : int;
  gindex : (int, int) Hashtbl.t; (* gvar id -> module index *)
  findex : (int, int) Hashtbl.t; (* func id -> module index *)
  stats : stats;
}

let rec type_index (e : enc) (ty : Ltype.t) : int =
  match Hashtbl.find_opt e.types ty with
  | Some k -> k
  | None ->
    (* intern components first so records only reference lower indices;
       Named breaks recursive cycles *)
    let record = Buffer.create 8 in
    (match ty with
    | Ltype.Void -> write_varint record t_void
    | Ltype.Bool -> write_varint record t_bool
    | Ltype.Integer k ->
      write_varint record t_integer;
      write_varint record (int_kind_code k)
    | Ltype.Float -> write_varint record t_float
    | Ltype.Double -> write_varint record t_double
    | Ltype.Pointer p ->
      let pi = type_index e p in
      write_varint record t_pointer;
      write_varint record pi
    | Ltype.Array (n, elt) ->
      let ei = type_index e elt in
      write_varint record t_array;
      write_varint record n;
      write_varint record ei
    | Ltype.Struct fields ->
      let idxs = List.map (type_index e) fields in
      write_varint record t_struct;
      write_varint record (List.length idxs);
      List.iter (write_varint record) idxs
    | Ltype.Function (ret, params, varargs) ->
      let ri = type_index e ret in
      let pis = List.map (type_index e) params in
      write_varint record t_function;
      write_varint record ri;
      write_varint record (if varargs then 1 else 0);
      write_varint record (List.length pis);
      List.iter (write_varint record) pis
    | Ltype.Named n ->
      write_varint record t_named;
      write_string record n
    | Ltype.Opaque n ->
      write_varint record t_opaque;
      write_string record n);
    (* the recursive interning above may have added this type already
       (mutually recursive shapes); re-check *)
    (match Hashtbl.find_opt e.types ty with
    | Some k -> k
    | None ->
      let k = e.type_count in
      e.type_count <- e.type_count + 1;
      Hashtbl.replace e.types ty k;
      Buffer.add_buffer e.type_records record;
      k)

let rec write_const (e : enc) (b : Buffer.t) (c : const) : unit =
  match c with
  | Cbool false -> write_varint b c_bool_false
  | Cbool true -> write_varint b c_bool_true
  | Cint (ty, v) ->
    write_varint b c_int;
    write_varint b (type_index e ty);
    write_varint64 b (zigzag v)
  | Cfloat (ty, f) ->
    write_varint b c_float;
    write_varint b (type_index e ty);
    write_f64 b f
  | Cnull ty ->
    write_varint b c_null;
    write_varint b (type_index e ty)
  | Cundef ty ->
    write_varint b c_undef;
    write_varint b (type_index e ty)
  | Czero ty ->
    write_varint b c_zero;
    write_varint b (type_index e ty)
  | Carray (elt, elts) ->
    write_varint b c_array;
    write_varint b (type_index e elt);
    write_varint b (List.length elts);
    List.iter (write_const e b) elts
  | Cstruct (ty, elts) ->
    write_varint b c_struct;
    write_varint b (type_index e ty);
    write_varint b (List.length elts);
    List.iter (write_const e b) elts
  | Cgvar g ->
    write_varint b c_gvar;
    write_varint b (Hashtbl.find e.gindex g.gid)
  | Cfunc f ->
    write_varint b c_func;
    write_varint b (Hashtbl.find e.findex f.fid)
  | Ccast (ty, c) ->
    write_varint b c_cast;
    write_varint b (type_index e ty);
    write_const e b c

(* -- function bodies --------------------------------------------------------- *)

module Ids = Hashtbl.Make (Int)

(* Pool key of a constant: two constants share a pool entry exactly when
   their printed forms [type:constant] agree.  Integers, booleans, null,
   undef and zeroinitializer key on their structure, which is the same
   partition; the other kinds key on the printed form itself.  Every NaN
   prints as [nan], so distinct NaN payloads share one entry and the
   first one's payload is written for all of them. *)
type const_key =
  | Kint of Ltype.t * int64
  | Kbool of bool
  | Knull of Ltype.t
  | Kundef of Ltype.t
  | Kzero of Ltype.t
  | Kprinted of string

let const_key (e : enc) (c : const) : const_key =
  match c with
  | Cint (ty, v) -> Kint (ty, v)
  | Cbool v -> Kbool v
  | Cnull ty -> Knull ty
  | Cundef ty -> Kundef ty
  | Czero ty -> Kzero ty
  | Cfloat _ | Carray _ | Cstruct _ | Cgvar _ | Cfunc _ | Ccast _ ->
    Kprinted
      (Fmt.str "%s:%a" (Ltype.to_string (type_of_const e.mtypes c))
         Printer.pp_const c)

(* operand id spaces: [args][pool][instrs][blocks] *)
type pool_entry = Pconst of const | Pglobal of int | Pfunc of int

let encode_body (e : enc) ~(strip : bool) (b : Buffer.t) (f : func) : unit =
  let args = Ids.create 8 and instrs = Ids.create 64 and blocks = Ids.create 16 in
  let globals = Ids.create 8 and funcs = Ids.create 8 in
  let consts : (const_key, int) Hashtbl.t = Hashtbl.create 16 in
  let next = ref 0 in
  let number tbl id =
    Ids.replace tbl id !next;
    incr next
  in
  let pool : pool_entry list ref = ref [] in
  List.iter (fun a -> number args a.aid) f.fargs;
  (* collect pool entries (constants, globals, function refs) in order *)
  iter_instrs
    (fun i ->
      Array.iter
        (fun v ->
          match v with
          | Vconst c ->
            let key = const_key e c in
            if not (Hashtbl.mem consts key) then begin
              Hashtbl.replace consts key !next;
              incr next;
              pool := Pconst c :: !pool
            end
          | Vglobal g ->
            if not (Ids.mem globals g.gid) then begin
              number globals g.gid;
              pool := Pglobal (Hashtbl.find e.gindex g.gid) :: !pool
            end
          | Vfunc fn ->
            if not (Ids.mem funcs fn.fid) then begin
              number funcs fn.fid;
              pool := Pfunc (Hashtbl.find e.findex fn.fid) :: !pool
            end
          | Vinstr _ | Varg _ | Vblock _ -> ())
        i.operands)
    f;
  let pool = List.rev !pool in
  (* then instruction results, then blocks *)
  iter_instrs (fun i -> number instrs i.iid) f;
  List.iter (fun blk -> number blocks blk.bid) f.fblocks;
  let id_of (v : value) : int =
    match v with
    | Varg a -> Ids.find args a.aid
    | Vinstr i -> Ids.find instrs i.iid
    | Vblock blk -> Ids.find blocks blk.bid
    | Vglobal g -> Ids.find globals g.gid
    | Vfunc fn -> Ids.find funcs fn.fid
    | Vconst c -> Hashtbl.find consts (const_key e c)
  in
  (* emit the pool *)
  write_varint b (List.length pool);
  e.stats.pool_entries <- e.stats.pool_entries + List.length pool;
  List.iter
    (fun entry ->
      match entry with
      | Pconst c ->
        write_varint b v_const;
        write_const e b c
      | Pglobal k ->
        write_varint b v_global;
        write_varint b k
      | Pfunc k ->
        write_varint b v_function;
        write_varint b k)
    pool;
  (* blocks and instructions *)
  write_varint b (List.length f.fblocks);
  List.iter
    (fun blk ->
      write_string b (if strip then "" else blk.bname);
      write_varint b (List.length blk.instrs);
      List.iter
        (fun i ->
          let ty_field =
            match i.iop with
            | Malloc | Alloca -> Option.get i.alloc_ty
            | _ -> i.ity
          in
          let tyi = type_index e ty_field in
          let op_ids = Array.map id_of i.operands in
          let opc = opcode_code i.iop in
          let count_operand =
            (* malloc/alloca distinguish "no count" from "count" via the
               operand count itself, so nothing extra is needed *)
            Array.length op_ids
          in
          let packed =
            match count_operand with
            | 0 when tyi < 256 ->
              Some (Int32.logor
                      (Int32.shift_left (Int32.of_int opc) 24)
                      (Int32.shift_left (Int32.of_int tyi) 16))
            | 1 when tyi < 256 && op_ids.(0) < 65536 ->
              Some (Int32.logor (Int32.shift_left 1l 30)
                      (Int32.logor
                         (Int32.shift_left (Int32.of_int opc) 24)
                         (Int32.logor
                            (Int32.shift_left (Int32.of_int tyi) 16)
                            (Int32.of_int op_ids.(0)))))
            | 2 when tyi < 256 && op_ids.(0) < 256 && op_ids.(1) < 256 ->
              Some (Int32.logor (Int32.shift_left 2l 30)
                      (Int32.logor
                         (Int32.shift_left (Int32.of_int opc) 24)
                         (Int32.logor
                            (Int32.shift_left (Int32.of_int tyi) 16)
                            (Int32.of_int ((op_ids.(0) lsl 8) lor op_ids.(1))))))
            | 3 when tyi < 64 && Array.for_all (fun id -> id < 64) op_ids ->
              Some (Int32.logor (Int32.shift_left 3l 30)
                      (Int32.logor
                         (Int32.shift_left (Int32.of_int opc) 24)
                         (Int32.of_int
                            ((tyi lsl 18) lor (op_ids.(0) lsl 12)
                            lor (op_ids.(1) lsl 6) lor op_ids.(2)))))
            | _ -> None
          in
          match packed with
          | Some word ->
            Buffer.add_int32_be b word;
            e.stats.one_word_instrs <- e.stats.one_word_instrs + 1
          | None ->
            (* compact wide form: escape byte, opcode byte, varints *)
            Buffer.add_char b (Char.chr wide_escape_opcode);
            Buffer.add_char b (Char.chr opc);
            write_varint b tyi;
            write_varint b (Array.length op_ids);
            Array.iter (write_varint b) op_ids;
            e.stats.wide_instrs <- e.stats.wide_instrs + 1)
        blk.instrs)
    f.fblocks;
  (* symbol table: names of args and value-producing instructions;
     stripped images carry no local names, like stripped executables *)
  let named = ref [] in
  if strip then begin
    write_varint b 0
  end
  else begin
  List.iter
    (fun a ->
      if a.aname <> "" then
        named := (Ids.find args a.aid, a.aname) :: !named)
    f.fargs;
  iter_instrs
    (fun i ->
      if i.iname <> "" && i.ity <> Ltype.Void then
        named := (Ids.find instrs i.iid, i.iname) :: !named)
    f;
  let named = List.rev !named in
  write_varint b (List.length named);
  List.iter
    (fun (id, name) ->
      write_varint b id;
      write_string b name)
    named
  end

let encode ?(strip = false) (m : modul) : string * stats =
  let stats = { one_word_instrs = 0; wide_instrs = 0; pool_entries = 0; total_bytes = 0 } in
  let e =
    { buf = Buffer.create 4096; mtypes = m.mtypes; types = Hashtbl.create 64;
      type_records = Buffer.create 512; type_count = 0;
      gindex = Hashtbl.create 32; findex = Hashtbl.create 32; stats }
  in
  List.iteri (fun k g -> Hashtbl.replace e.gindex g.gid k) m.mglobals;
  List.iteri (fun k f -> Hashtbl.replace e.findex f.fid k) m.mfuncs;
  (* body sections are built first so the type table is complete *)
  let body = Buffer.create 4096 in
  write_string body m.mname;
  (* global headers *)
  write_varint body (List.length m.mglobals);
  List.iter
    (fun g ->
      write_string body g.gname;
      let flags =
        (if g.gconstant then 1 else 0)
        lor (if g.glinkage = Internal then 2 else 0)
        lor (if g.ginit <> None then 4 else 0)
      in
      write_varint body flags;
      write_varint body (type_index e g.gty))
    m.mglobals;
  (* function headers *)
  write_varint body (List.length m.mfuncs);
  List.iter
    (fun f ->
      write_string body f.fname;
      let flags =
        (if f.flinkage = Internal then 1 else 0)
        lor (if f.fvarargs then 2 else 0)
        lor (if is_declaration f then 4 else 0)
      in
      write_varint body flags;
      write_varint body (type_index e f.freturn);
      write_varint body (List.length f.fargs);
      List.iter
        (fun a ->
          write_string body (if strip then "" else a.aname);
          write_varint body (type_index e a.aty))
        f.fargs)
    m.mfuncs;
  (* named type definitions *)
  let names = Hashtbl.fold (fun n ty acc -> (n, ty) :: acc) m.mtypes [] in
  let names = List.sort compare names in
  write_varint body (List.length names);
  List.iter
    (fun (n, ty) ->
      write_string body n;
      write_varint body (type_index e ty))
    names;
  (* global initializers *)
  List.iter
    (fun g ->
      match g.ginit with
      | Some c -> write_const e body c
      | None -> ())
    m.mglobals;
  (* function bodies *)
  List.iter
    (fun f -> if not (is_declaration f) then encode_body e ~strip body f)
    m.mfuncs;
  (* assemble: magic, version, type table, body *)
  Buffer.add_string e.buf magic;
  Buffer.add_char e.buf (Char.chr version);
  write_varint e.buf e.type_count;
  Buffer.add_buffer e.buf e.type_records;
  Buffer.add_buffer e.buf body;
  let out = Buffer.contents e.buf in
  stats.total_bytes <- String.length out;
  (out, stats)
