(* Stack promotion (paper section 3.2).

   Front-ends do not construct SSA: they allocate mutable variables with
   [alloca] and use loads/stores.  This pass promotes allocas whose
   address does not escape into SSA registers, inserting phi functions at
   iterated dominance frontiers and renaming along a dominator-tree walk
   (Cytron et al.). *)

open Llvm_ir
open Ir

(* An alloca is promotable when it allocates a single first-class value
   and every use is a direct load or a store *to* it (its address never
   escapes as a stored value, call argument, gep base, cast source...). *)
let promotable (i : instr) : bool =
  i.iop = Alloca
  && Array.length i.operands = 0
  && (match i.alloc_ty with
     | Some t -> Ltype.is_first_class t
     | None -> false)
  && List.for_all
       (fun u ->
         match u.user.iop with
         | Load -> true
         | Store -> u.index = 1 (* pointer operand, not the stored value *)
         | _ -> false)
       i.iuses

let undef_for (i : instr) =
  match i.alloc_ty with
  | Some t -> Vconst (Cundef t)
  | None -> Vconst (Cundef Ltype.Void)

let promote_function (f : func) : bool =
  let removed = Cleanup.remove_unreachable_blocks f in
  let allocas = ref [] in
  iter_instrs (fun i -> if promotable i then allocas := i :: !allocas) f;
  let allocas = List.rev !allocas in
  if allocas = [] then removed
  else begin
    let dom = Dominance.compute f in
    let df = Dominance.frontiers dom f in
    let alloca_index = Hashtbl.create 16 in
    List.iteri (fun k a -> Hashtbl.replace alloca_index a.iid k) allocas;
    (* map phi id -> alloca it merges *)
    let phi_alloca : (int, instr) Hashtbl.t = Hashtbl.create 32 in
    (* 1. place phis at iterated dominance frontiers of store blocks *)
    List.iter
      (fun a ->
        let ty = Option.get a.alloc_ty in
        let def_blocks =
          List.filter_map
            (fun u ->
              if u.user.iop = Store then u.user.iparent else None)
            a.iuses
        in
        let placed = Hashtbl.create 16 in
        let worklist = Queue.create () in
        List.iter (fun b -> Queue.add b worklist) def_blocks;
        while not (Queue.is_empty worklist) do
          let b = Queue.pop worklist in
          if Dominance.is_reachable dom b then
            List.iter
              (fun j ->
                if not (Hashtbl.mem placed j.bid) then begin
                  Hashtbl.replace placed j.bid ();
                  let phi =
                    mk_instr ~name:a.iname ~ty Phi []
                  in
                  prepend_instr j phi;
                  Hashtbl.replace phi_alloca phi.iid a;
                  (* a phi is itself a definition *)
                  Queue.add j worklist
                end)
              (Dominance.frontier_of df b)
        done)
      allocas;
    (* 2. rename along the dominator tree *)
    let current : (int, value) Hashtbl.t = Hashtbl.create 16 in
    List.iter (fun a -> Hashtbl.replace current a.iid (undef_for a)) allocas;
    let rec rename (b : block) =
      let undo = ref [] in
      let set a v =
        undo := (a.iid, Hashtbl.find current a.iid) :: !undo;
        Hashtbl.replace current a.iid v
      in
      (* process instructions; collect deletions to apply afterwards *)
      let dead = ref [] in
      List.iter
        (fun i ->
          match i.iop with
          | Phi -> (
            match Hashtbl.find_opt phi_alloca i.iid with
            | Some a -> set a (Vinstr i)
            | None -> ())
          | Load -> (
            match i.operands.(0) with
            | Vinstr a when Hashtbl.mem alloca_index a.iid ->
              replace_all_uses_with (Vinstr i) (Hashtbl.find current a.iid);
              dead := i :: !dead
            | _ -> ())
          | Store -> (
            match i.operands.(1) with
            | Vinstr a when Hashtbl.mem alloca_index a.iid ->
              set a i.operands.(0);
              dead := i :: !dead
            | _ -> ())
          | _ -> ())
        b.instrs;
      List.iter erase_instr !dead;
      (* feed phis of CFG successors *)
      (match terminator b with
      | Some t ->
        let seen = Hashtbl.create 4 in
        List.iter
          (fun s ->
            if not (Hashtbl.mem seen s.bid) then begin
              Hashtbl.add seen s.bid ();
              List.iter
                (fun i ->
                  if i.iop = Phi then
                    match Hashtbl.find_opt phi_alloca i.iid with
                    | Some a ->
                      phi_add_incoming i (Hashtbl.find current a.iid) b
                    | None -> ())
                s.instrs
            end)
          (successors t)
      | None -> ());
      List.iter rename (Dominance.children dom b);
      List.iter (fun (id, v) -> Hashtbl.replace current id v) !undo
    in
    rename (entry_block f);
    (* 3. drop the allocas (unreachable code was removed up front, so no
       loads or stores can remain) *)
    List.iter
      (fun a ->
        assert (a.iuses = []);
        erase_instr a)
      allocas;
    true
  end

let pass =
  Pass.function_pass ~name:"mem2reg"
    ~description:"promote allocas to SSA registers (stack promotion)"
    promote_function
