(* The pass manager.

   Optimizations are "built into libraries, making it easy for front-ends
   to use them" (paper section 3.2).  A pass is a named module
   transformation returning whether it changed anything; the manager runs
   sequences through one runner, and exposes a registry for the opt tool.

   The runner takes a list of hooks fired around every pass.  Everything
   that watches or polices a pipeline — the daemon's deadline check and
   fault injection, opt's --time-passes — is a hook on that one loop, so
   a pipeline runs the same way wherever it is run. *)

open Llvm_ir

type t = {
  name : string;
  description : string;
  run : Ir.modul -> bool;
}

type hook = {
  before : t -> Ir.modul -> unit;
  after : t -> Ir.modul -> bool -> unit;
}

let make ~name ~description run = { name; description; run }

(* Lift a per-function transformation to a module pass. *)
let function_pass ~name ~description (run_func : Ir.func -> bool) =
  { name;
    description;
    run =
      (fun m ->
        List.fold_left
          (fun changed f ->
            if Ir.is_declaration f then changed else run_func f || changed)
          false m.Ir.mfuncs) }

let run_pass (p : t) (m : Ir.modul) : bool = p.run m

(* Direct recursion rather than [List.iter] with a closure: with no
   hooks the runner allocates nothing per pass. *)
let rec fire_before hooks p m =
  match hooks with
  | [] -> ()
  | h :: rest -> h.before p m; fire_before rest p m

let rec fire_after hooks p m changed =
  match hooks with
  | [] -> ()
  | h :: rest -> h.after p m changed; fire_after rest p m changed

let run_sequence ?(hooks = []) (passes : t list) (m : Ir.modul) : bool =
  let rec go changed = function
    | [] -> changed
    | p :: rest ->
      fire_before hooks p m;
      let c = p.run m in
      fire_after hooks p m c;
      go (c || changed) rest
  in
  go false passes

(* -- Registry ----------------------------------------------------------- *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 32

let register (p : t) = Hashtbl.replace registry p.name p

let find name = Hashtbl.find_opt registry name

let all () =
  Hashtbl.fold (fun _ p acc -> p :: acc) registry []
  |> List.sort (fun a b -> compare a.name b.name)
