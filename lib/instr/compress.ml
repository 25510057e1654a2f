(* Shadow dead-code elimination: re-optimizing the inserted instrumentation,
   step (3) of the paper's O1/O2 methodology (§4.6) — "rerunning the
   optimization suite ... to further optimize the instrumentation code
   inserted".

   A [Set_var] whose shadow register is never read (by another shadow
   statement, a relay, a shadow memory write or a check) is dead and
   removed, transitively. Every [Set_mem], [Set_mem_object], [Set_global]
   and [Check] is kept unconditionally: shadow memory and the relay array
   are indexed dynamically, and checks are the point of the plan. *)

open Ir.Types

let operand_reads = function Var v -> [ v ] | Cst _ | Undef -> []

let rhs_reads (rhs : Item.shadow_rhs) : var list =
  match rhs with
  | Item.Rconst _ | Item.Rglobal _ -> []
  | Item.Rvar y -> [ y ]
  | Item.Rconj ys -> ys
  | Item.Rmem y -> [ y ]   (* the pointer's *value* is read, not its shadow;
                              but conservatively keeping y costs nothing *)
  | Item.Rphi arms -> List.concat_map (fun (_, o) -> operand_reads o) arms

let shadow_reads (a : Item.action) : var list =
  match a with
  | Item.Set_var (_, rhs) -> rhs_reads rhs
  | Item.Set_mem (_, Item.Mop o) -> operand_reads o
  | Item.Set_mem (_, Item.Mconst _) | Item.Set_mem_object _ -> []
  | Item.Set_global (_, o) -> operand_reads o
  | Item.Check o -> operand_reads o

(* Every action of the plan, labelled items first, then entry actions. *)
let iter_actions (plan : Item.plan) (f : Item.action -> unit) =
  Array.iter (List.iter (fun (it : Item.item) -> f it.act)) plan.items;
  Hashtbl.iter (fun _ acts -> List.iter f acts) plan.entry_items

(* Optimistic constant propagation over the shadow program — what LLVM's
   instcombine/SCCP does to MSan's inserted code at O1/O2: shadows rooted
   only in constants fold to "defined", their propagation chains collapse,
   and checks that provably never fire disappear. Shadow registers default
   to true at run time, so deleting an always-true [Set_var] is
   semantics-preserving. Returns the number of actions removed. *)
let fold_constants (plan : Item.plan) : int =
  let removed = ref 0 in
  (* Shadow definition per variable (unique: the program is in SSA). *)
  let defs : (var, Item.shadow_rhs) Hashtbl.t = Hashtbl.create 256 in
  iter_actions plan (function
    | Item.Set_var (x, rhs) -> Hashtbl.replace defs x rhs
    | _ -> ());
  (* Optimistic greatest fixpoint: assume every shadow is constant-true,
     demote the definitions that are not, then re-test only the still-true
     definitions that read a demoted variable. A variable with no shadow
     definition keeps its default (true). *)
  let not_const : (var, unit) Hashtbl.t = Hashtbl.create 256 in
  let is_true v = not (Hashtbl.mem not_const v) in
  let op_true = function
    | Var v -> is_true v
    | Cst _ -> true
    | Undef -> false
  in
  let rhs_true (rhs : Item.shadow_rhs) =
    match rhs with
    | Item.Rconst b -> b
    | Item.Rvar y -> is_true y
    | Item.Rconj ys -> List.for_all is_true ys
    | Item.Rmem _ | Item.Rglobal _ -> false
    | Item.Rphi arms -> List.for_all (fun (_, o) -> op_true o) arms
  in
  let work = Stack.create () in
  let retest x rhs =
    if is_true x && not (rhs_true rhs) then begin
      Hashtbl.replace not_const x ();
      Stack.push x work
    end
  in
  Hashtbl.iter retest defs;
  let users : (var, var) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.iter
    (fun x rhs ->
      if is_true x then List.iter (fun y -> Hashtbl.add users y x) (rhs_reads rhs))
    defs;
  while not (Stack.is_empty work) do
    List.iter
      (fun x -> retest x (Hashtbl.find defs x))
      (Hashtbl.find_all users (Stack.pop work))
  done;
  (* Rewrite: drop always-true definitions and the checks they feed; thin
     conjunctions of surviving definitions. *)
  let rewrite (a : Item.action) : Item.action option =
    match a with
    | Item.Set_var (x, _) when is_true x ->
      incr removed;
      None
    | Item.Set_var (x, Item.Rconj ys) ->
      let ys' = List.filter (fun y -> not (is_true y)) ys in
      if ys' = [] then (incr removed; None)
      else Some (Item.Set_var (x, Item.Rconj ys'))
    | Item.Check (Var x) when is_true x ->
      incr removed;
      None
    | Item.Set_mem (x, Item.Mop (Var y)) when is_true y ->
      Some (Item.Set_mem (x, Item.Mop (Cst 1)))
    | Item.Set_global (i, Var y) when is_true y -> Some (Item.Set_global (i, Cst 1))
    | other -> Some other
  in
  Array.iteri
    (fun i items ->
      plan.items.(i) <-
        List.filter_map
          (fun (it : Item.item) ->
            Option.map (fun act -> { it with Item.act }) (rewrite it.act))
          items)
    plan.items;
  Hashtbl.iter
    (fun fn acts ->
      Hashtbl.replace plan.entry_items fn (List.filter_map rewrite acts))
    plan.entry_items;
  !removed

(* Use-count dead-code elimination, linear in the plan: count every read of
   each register (one per occurrence), kill the defined registers nobody
   reads, and let each kill release the reads its definitions made. A
   register read by its own definition (a loop-carried shadow phi) or by a
   dead cycle never reaches zero and is kept. *)
let run (plan : Item.plan) : int =
  let reads : (var, int) Hashtbl.t = Hashtbl.create 256 in
  let defs : (var, Item.shadow_rhs) Hashtbl.t = Hashtbl.create 256 in
  iter_actions plan (fun a ->
      List.iter
        (fun v ->
          Hashtbl.replace reads v
            (1 + Option.value ~default:0 (Hashtbl.find_opt reads v)))
        (shadow_reads a);
      match a with Item.Set_var (x, rhs) -> Hashtbl.add defs x rhs | _ -> ());
  let dead : (var, unit) Hashtbl.t = Hashtbl.create 256 in
  let work = Stack.create () in
  let kill x =
    if not (Hashtbl.mem dead x) then begin
      Hashtbl.replace dead x ();
      Stack.push x work
    end
  in
  Hashtbl.iter (fun x _ -> if not (Hashtbl.mem reads x) then kill x) defs;
  while not (Stack.is_empty work) do
    List.iter
      (fun rhs ->
        List.iter
          (fun y ->
            let n = Hashtbl.find reads y - 1 in
            Hashtbl.replace reads y n;
            if n = 0 && Hashtbl.mem defs y then kill y)
          (rhs_reads rhs))
      (Hashtbl.find_all defs (Stack.pop work))
  done;
  let removed = ref 0 in
  (* The original list when nothing goes, so untouched entries stay
     physically the same. *)
  let sweep live xs =
    let kept = List.filter live xs in
    let n = List.length xs - List.length kept in
    removed := !removed + n;
    if n = 0 then xs else kept
  in
  let live_act (a : Item.action) =
    match a with Item.Set_var (x, _) -> not (Hashtbl.mem dead x) | _ -> true
  in
  Array.iteri
    (fun i items ->
      plan.items.(i) <- sweep (fun (it : Item.item) -> live_act it.act) items)
    plan.items;
  Hashtbl.filter_map_inplace (fun _ acts -> Some (sweep live_act acts)) plan.entry_items;
  !removed
