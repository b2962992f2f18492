(* Bitcode decoder: binary image -> in-memory module. *)

open Llvm_ir
open Ir
open Format

exception Malformed = Format.Malformed

type dec = {
  r : Cursor.t;
  mutable type_table : Ltype.t array;
  mutable globals : gvar array;
  mutable funcs : func array;
  m : modul;
}

(* Table lookup by a decoded index. *)
let lookup (what : string) (table : 'a array) (k : int) : 'a =
  if k < 0 || k >= Array.length table then
    raise (Malformed (Printf.sprintf "%s index %d out of range" what k));
  table.(k)

let read_type (d : dec) : Ltype.t = lookup "type" d.type_table (read_varint d.r)

let read_type_table (d : dec) : unit =
  let count = read_count d.r in
  let types = Array.make count Ltype.Void in
  let elt () = lookup "type" types (read_varint d.r) in
  for k = 0 to count - 1 do
    let tag = read_varint d.r in
    let ty =
      if tag = t_void then Ltype.Void
      else if tag = t_bool then Ltype.Bool
      else if tag = t_integer then Ltype.Integer (int_kind_of_code (read_varint d.r))
      else if tag = t_float then Ltype.Float
      else if tag = t_double then Ltype.Double
      else if tag = t_pointer then Ltype.Pointer (elt ())
      else if tag = t_array then begin
        let n = read_varint d.r in
        Ltype.Array (n, elt ())
      end
      else if tag = t_struct then begin
        let n = read_count d.r in
        Ltype.Struct (List.init n (fun _ -> elt ()))
      end
      else if tag = t_function then begin
        let ret = elt () in
        let varargs = read_varint d.r = 1 in
        let n = read_count d.r in
        let params = List.init n (fun _ -> elt ()) in
        Ltype.Function (ret, params, varargs)
      end
      else if tag = t_named then Ltype.Named (read_string d.r)
      else if tag = t_opaque then Ltype.Opaque (read_string d.r)
      else raise (Malformed (Printf.sprintf "bad type tag %d" tag))
    in
    types.(k) <- ty
  done;
  d.type_table <- types

let rec read_const (d : dec) : const =
  let tag = read_varint d.r in
  if tag = c_bool_false then Cbool false
  else if tag = c_bool_true then Cbool true
  else if tag = c_int then begin
    let ty = read_type d in
    Cint (ty, unzigzag (read_varint64 d.r))
  end
  else if tag = c_float then begin
    let ty = read_type d in
    Cfloat (ty, Int64.float_of_bits (Cursor.i64_le d.r))
  end
  else if tag = c_null then Cnull (read_type d)
  else if tag = c_undef then Cundef (read_type d)
  else if tag = c_zero then Czero (read_type d)
  else if tag = c_array then begin
    let elt = read_type d in
    let n = read_count d.r in
    Carray (elt, List.init n (fun _ -> read_const d))
  end
  else if tag = c_struct then begin
    let ty = read_type d in
    let n = read_count d.r in
    Cstruct (ty, List.init n (fun _ -> read_const d))
  end
  else if tag = c_gvar then Cgvar (lookup "global" d.globals (read_varint d.r))
  else if tag = c_func then Cfunc (lookup "function" d.funcs (read_varint d.r))
  else if tag = c_cast then begin
    let ty = read_type d in
    Ccast (ty, read_const d)
  end
  else raise (Malformed (Printf.sprintf "bad constant tag %d" tag))

let read_body (d : dec) (f : func) : unit =
  (* value id space: [args][pool][instrs][blocks] *)
  let values : value list ref = ref [] in
  let push v = values := v :: !values in
  List.iter (fun a -> push (Varg a)) f.fargs;
  let npool = read_count d.r in
  for _ = 1 to npool do
    let tag = read_varint d.r in
    if tag = v_const then push (Vconst (read_const d))
    else if tag = v_global then push (Vglobal (lookup "global" d.globals (read_varint d.r)))
    else if tag = v_function then push (Vfunc (lookup "function" d.funcs (read_varint d.r)))
    else raise (Malformed "bad pool tag")
  done;
  let nblocks = read_count d.r in
  (* read all instructions, creating shells; operand ids resolved after *)
  let pending : (instr * int array) list ref = ref [] in
  let blocks = ref [] in
  for _ = 1 to nblocks do
    let bname = read_string d.r in
    let blk = mk_block ~name:bname () in
    append_block f blk;
    blocks := blk :: !blocks;
    let ninstrs = read_count d.r in
    for _ = 1 to ninstrs do
      let first = Cursor.byte d.r in
      let wide = first = wide_escape_opcode in
      let opc, tyi, op_ids =
        if wide then begin
          let opc = Cursor.byte d.r in
          let tyi = read_varint d.r in
          let n = read_count d.r in
          (opc, tyi, Array.init n (fun _ -> read_varint d.r))
        end
        else begin
        let b1 = Cursor.byte d.r in
        let b2 = Cursor.byte d.r in
        let b3 = Cursor.byte d.r in
        let word =
          Int32.logor
            (Int32.shift_left (Int32.of_int first) 24)
            (Int32.of_int ((b1 lsl 16) lor (b2 lsl 8) lor b3))
        in
        let tag = Int32.to_int (Int32.shift_right_logical word 30) in
        let hdr_opc =
          Int32.to_int (Int32.logand (Int32.shift_right_logical word 24) 0x3Fl)
        in
        if tag = 3 then begin
          let body = Int32.to_int (Int32.logand word 0xFFFFFFl) in
          ( hdr_opc,
            (body lsr 18) land 0x3F,
            [| (body lsr 12) land 0x3F; (body lsr 6) land 0x3F; body land 0x3F |] )
        end
        else begin
          let tyi =
            Int32.to_int (Int32.logand (Int32.shift_right_logical word 16) 0xFFl)
          in
          let ids =
            match tag with
            | 0 -> [||]
            | 1 -> [| Int32.to_int (Int32.logand word 0xFFFFl) |]
            | _ ->
              [| Int32.to_int (Int32.logand (Int32.shift_right_logical word 8) 0xFFl);
                 Int32.to_int (Int32.logand word 0xFFl) |]
          in
          (hdr_opc, tyi, ids)
        end
        end
      in
      let op = opcode_of_code opc in
      let ty_field = lookup "type" d.type_table tyi in
      let ity, alloc_ty =
        match op with
        | Malloc | Alloca -> (Ltype.Pointer ty_field, Some ty_field)
        | _ -> (ty_field, None)
      in
      let i = mk_instr ?alloc_ty ~ty:ity op [] in
      append_instr blk i;
      pending := (i, op_ids) :: !pending
    done
  done;
  (* complete the id space with instruction results and blocks *)
  iter_instrs (fun i -> push (Vinstr i)) f;
  List.iter (fun blk -> push (Vblock blk)) (List.rev !blocks);
  let table = Array.of_list (List.rev !values) in
  List.iter
    (fun (i, ids) ->
      set_operands i (Array.map (lookup "value" table) ids))
    !pending;
  (* symbol table *)
  let nnames = read_count d.r in
  for _ = 1 to nnames do
    let id = read_varint d.r in
    let name = read_string d.r in
    match lookup "value" table id with
    | Vinstr i -> i.iname <- name
    | Varg a -> a.aname <- name
    | _ -> ()
  done

let decode (src : string) : modul =
  if String.length src < 5 || String.sub src 0 4 <> magic then
    raise (Malformed "bad magic");
  let r = Cursor.create ~pos:4 ~fail:malformed src in
  let v = Cursor.byte r in
  if v <> version then raise (Malformed "unsupported version");
  let d =
    { r; type_table = [||]; globals = [||]; funcs = [||];
      m = mk_module "decoded" }
  in
  read_type_table d;
  d.m.mname <- read_string r;
  (* global headers *)
  let nglobals = read_count r in
  let ginit_flags = Array.make nglobals false in
  d.globals <-
    Array.init nglobals (fun k ->
        let name = read_string r in
        let flags = read_varint r in
        let ty = read_type d in
        ginit_flags.(k) <- flags land 4 <> 0;
        mk_gvar
          ~linkage:(if flags land 2 <> 0 then Internal else External)
          ~constant:(flags land 1 <> 0) ~name ~ty ());
  Array.iter (fun g -> add_gvar d.m g) d.globals;
  (* function headers *)
  let nfuncs = read_count r in
  let fdefined = Array.make nfuncs false in
  d.funcs <-
    Array.init nfuncs (fun k ->
        let name = read_string r in
        let flags = read_varint r in
        let ret = read_type d in
        let nparams = read_count r in
        let params =
          List.init nparams (fun _ ->
              let pname = read_string r in
              let pty = read_type d in
              (pname, pty))
        in
        fdefined.(k) <- flags land 4 = 0;
        mk_func
          ~linkage:(if flags land 1 <> 0 then Internal else External)
          ~varargs:(flags land 2 <> 0) ~name ~return:ret ~params ());
  Array.iter (fun f -> add_func d.m f) d.funcs;
  (* named types *)
  let nnamed = read_count r in
  for _ = 1 to nnamed do
    let n = read_string r in
    let ty = read_type d in
    define_type d.m n ty
  done;
  (* global initializers *)
  Array.iteri
    (fun k g -> if ginit_flags.(k) then g.ginit <- Some (read_const d))
    d.globals;
  (* function bodies *)
  Array.iteri (fun k f -> if fdefined.(k) then read_body d f) d.funcs;
  d.m
