(* mem2reg, inlining and the scalar optimization passes. *)

open Helpers

let mem2reg_tests =
  [
    tc "scalars promote, arrays stay" (fun () ->
        let p = compile "int main() { int x = 1; int a[2]; a[0] = x; return a[0]; }" in
        ignore (Optim.Mem2reg.run p);
        let allocs = count_instrs (function Ir.Types.Alloc _ -> true | _ -> false) p in
        check_int "only the array remains" 1 allocs);
    tc "address-taken scalars stay" (fun () ->
        let p = compile "int main() { int x = 1; int *p = &x; *p = 2; return x; }" in
        ignore (Optim.Mem2reg.run p);
        check_bool "x not promoted" true
          (count_instrs (function Ir.Types.Alloc a -> a.Ir.Types.aname = "x" | _ -> false) p
          = 1));
    tc "uninitialized read becomes Undef" (fun () ->
        let p = front "int main() { int x; return x + 1; }" in
        let uses_undef = ref false in
        Ir.Prog.iter_instrs
          (fun _ _ i ->
            match i.Ir.Types.kind with
            | Ir.Types.Binop (_, _, Ir.Types.Undef, _)
            | Ir.Types.Binop (_, _, _, Ir.Types.Undef) ->
              uses_undef := true
            | _ -> ())
          p;
        check_bool "undef operand" true !uses_undef);
    tc "pruned SSA: no dead phis" (fun () ->
        (* t is dead after the join; pruned SSA must not give it a phi. *)
        let p =
          front
            "int main() { int x; int t;\n\
             if (1) { x = 1; } else { t = 10; x = t; }\n\
             return x; }"
        in
        let phis = ref [] in
        Ir.Prog.iter_instrs
          (fun _ _ i ->
            match i.Ir.Types.kind with
            | Ir.Types.Phi (v, _) -> phis := (Ir.Prog.varinfo p v).vname :: !phis
            | _ -> ())
          p;
        check_bool "only x has a phi" true (!phis = [ "x" ]));
    tc "phi merges conditional definitions" (fun () ->
        check_ints "out" [ 7 ]
          (outputs "int main() { int x; int c = 0; if (c) { x = 3; } else { x = 7; }\n\
                    print(x); return 0; }"));
    tc "loop-carried values get phis" (fun () ->
        check_ints "out" [ 10 ]
          (outputs "int main() { int s = 0; int i;\n\
                    for (i = 0; i < 5; i = i + 1) { s = s + i; }\n\
                    print(s); return 0; }"));
    tc "ssa verifies after promotion" (fun () ->
        let p = front "int f(int n) { int r = 1; int i;\n\
                       for (i = 1; i <= n; i = i + 1) { r = r * i; }\n\
                       return r; }\n\
                       int main() { return f(5); }" in
        Ir.Verify.check_ssa p);
    tc "phi order ignores earlier functions' variables" (fun () ->
        (* Var ids come from a program-wide counter, so a function that
           allocates variables earlier shifts every id in g. Promotion
           follows g's IR order, so g's join-block phis must come out in
           the same order either way. Seven padding variables are enough
           to reorder a Hashtbl walk over g's allocs. *)
        let g =
          "int g(int c) { int a; int b; int d; int e;\n\
           if (c) { a = 1; b = 2; d = 3; e = 4; }\n\
           else { a = 5; b = 6; d = 7; e = 8; }\n\
           return a + b + d + e; }\n\
           int main() { return g(1); }\n"
        in
        let pad =
          "int pad() { "
          ^ String.concat " "
              (List.init 7 (fun i -> Printf.sprintf "int v%d = %d;" i i))
          ^ " return 0; }\n"
        in
        let phi_order src =
          let p = compile src in
          ignore (Optim.Mem2reg.run p);
          let names = ref [] in
          Ir.Func.iter_instrs
            (fun _ i ->
              match i.Ir.Types.kind with
              | Ir.Types.Phi (v, _) ->
                names := (Ir.Prog.varinfo p v).vname :: !names
              | _ -> ())
            (Ir.Prog.get_func p "g");
          List.rev !names
        in
        let alone = phi_order g in
        check_int "four phis" 4 (List.length alone);
        Alcotest.(check (list string)) "same phi order" alone
          (phi_order (pad ^ g)));
  ]

let inline_tests =
  [
    tc "function-pointer-argument functions are inlined" (fun () ->
        let p =
          compile
            "int inc(int x) { return x + 1; }\n\
             int apply(int *f, int x) { return f(x); }\n\
             int main() { return apply((int*)inc, 4); }"
        in
        let s = Optim.Inline.run p in
        check_bool "inlined" true (s.inlined_calls >= 1);
        (* main must no longer call apply directly *)
        let calls_apply = ref false in
        Ir.Func.iter_instrs
          (fun _ i ->
            match i.Ir.Types.kind with
            | Ir.Types.Call { callee = Ir.Types.Direct "apply"; _ } -> calls_apply := true
            | _ -> ())
          (Ir.Prog.get_func p "main");
        check_bool "no direct call left" false !calls_apply);
    tc "inlining preserves behaviour" (fun () ->
        let src =
          "int inc(int x) { return x + 1; }\n\
           int dbl(int x) { return x * 2; }\n\
           int apply(int *f, int x) { return f(x); }\n\
           int main() { print(apply((int*)inc, 4)); print(apply((int*)dbl, 4)); return 0; }"
        in
        check_ints "out" [ 5; 8 ] (outputs src));
    tc "recursive functions are not inlined" (fun () ->
        let p =
          compile
            "int rec(int *f, int n) { if (n < 1) { return 0; } return rec(f, n - 1) + f(n); }\n\
             int id(int x) { return x; }\n\
             int main() { return rec((int*)id, 3); }"
        in
        let s = Optim.Inline.run p in
        check_int "nothing inlined" 0 s.inlined_calls);
  ]

(* Behaviour must be identical across levels. *)
let level_preservation src =
  let base = outputs ~level:Optim.Pipeline.O0_IM src in
  check_ints "O1" base (outputs ~level:Optim.Pipeline.O1 src);
  check_ints "O2" base (outputs ~level:Optim.Pipeline.O2 src)

let scalar_tests =
  [
    tc "constprop folds arithmetic and branches" (fun () ->
        let p = front "int main() { int a = 3; int b = a * 2 + 1;\n\
                       if (b == 7) { print(1); } else { print(2); }\n\
                       return b; }" in
        ignore (Optim.Constprop.run p);
        ignore (Optim.Dce.run p);
        let branches = ref 0 in
        Ir.Prog.iter_terms
          (fun _ _ t ->
            match t.Ir.Types.tkind with Ir.Types.Br _ -> incr branches | _ -> ())
          p;
        check_int "branch folded" 0 !branches);
    tc "constprop division by zero folds like the interpreter" (fun () ->
        level_preservation "int main() { int z = 0; print(7 / z); print(7 % z); return 0; }");
    tc "copyprop chases copy chains" (fun () ->
        let p = front "int main() { int a = 5; int b = a; int c = b; print(c); return c; }" in
        ignore (Optim.Copyprop.run p);
        ignore (Optim.Dce.run p);
        check_bool "no copies left" true
          (count_instrs (function Ir.Types.Copy _ -> true | _ -> false) p = 0));
    tc "cse merges repeated subexpressions" (fun () ->
        let p = front "int main(){ int a = input(); int x = a * 3 + 1; int y = a * 3 + 1;\n\
                       print(x + y); return 0; }" in
        let before = count_instrs (function Ir.Types.Binop _ -> true | _ -> false) p in
        ignore (Optim.Cse.run p);
        ignore (Optim.Copyprop.run p);
        ignore (Optim.Dce.run p);
        let after = count_instrs (function Ir.Types.Binop _ -> true | _ -> false) p in
        check_bool "fewer binops" true (after < before));
    tc "cse does not merge across non-dominating blocks" (fun () ->
        level_preservation
          "int main() { int a = input(); int r;\n\
           if (a > 0) { r = a * 2; } else { r = a * 2 + 1; }\n\
           print(r); return 0; }");
    tc "dce removes dead arithmetic but keeps side effects" (fun () ->
        let p = front "int main() { int a = input(); int dead = a * 99;\n\
                       print(a); return 0; }" in
        ignore (Optim.Dce.run p);
        check_bool "dead binop removed" true
          (count_instrs (function Ir.Types.Binop _ -> true | _ -> false) p = 0);
        check_bool "input kept" true
          (count_instrs (function Ir.Types.Input _ -> true | _ -> false) p = 1));
    tc "licm hoists invariant arithmetic" (fun () ->
        let p = front
            "int main() { int n = input(); int k = input(); int s = 0; int i;\n\
             for (i = 0; i < n; i = i + 1) { int inv = k * 17 + 3; s = s + inv + i; }\n\
             print(s); return 0; }" in
        let f0 = Ir.Prog.get_func p "main" in
        let blocks_before = Array.length f0.blocks in
        ignore (Optim.Licm.run p);
        Ir.Verify.check_ssa p;
        let f1 = Ir.Prog.get_func p "main" in
        check_bool "preheader added" true (Array.length f1.blocks > blocks_before));
    tc "licm preserves behaviour" (fun () ->
        level_preservation
          "int main() { int n = 7; int k = 5; int s = 0; int i;\n\
           for (i = 0; i < n; i = i + 1) { int inv = k * 17 + 3; s = s + inv + i; }\n\
           print(s); return 0; }");
    tc "full pipelines preserve a mixed program" (fun () ->
        level_preservation
          "struct P { int x; int y; };\n\
           int dist(struct P *p) { return p->x * p->x + p->y * p->y; }\n\
           int main() { struct P *p = (struct P*)malloc(sizeof(struct P));\n\
           p->x = 3; p->y = 4; int a[4]; int i;\n\
           for (i = 0; i < 4; i = i + 1) { a[i] = dist(p) + i; }\n\
           print(a[0]); print(a[3]); return 0; }");
    tc "shadow dce drops unread shadow defs" (fun () ->
        let prog = front "int main() { int a = input(); int b = a + 1; print(b); return 0; }" in
        let plan = Instr.Full.build prog in
        let before = (Instr.Item.stats_of plan).total_items in
        let removed = Instr.Compress.run plan in
        check_bool "removed some" true (removed > 0);
        check_int "consistent" (before - removed) (Instr.Item.stats_of plan).total_items);
    tc "shadow constant folding removes provably-clean chains" (fun () ->
        let prog = front "int main() { int a = 2; int b = a * 3; int c = b + 4;\n\
                          if (c > 5) { print(c); } return 0; }" in
        let plan = Instr.Full.build prog in
        let removed = Instr.Compress.fold_constants plan in
        check_bool "folded" true (removed > 0);
        (* everything is constant-rooted: no checks survive *)
        check_int "no checks left" 0 (Instr.Item.stats_of plan).checks);
    tc "shadow folding keeps undef-rooted checks" (fun () ->
        let prog = front "int main() { int u; int c = 0; if (c) { u = 1; }\n\
                          if (u > 0) { print(1); } return 0; }" in
        let plan = Instr.Full.build prog in
        ignore (Instr.Compress.fold_constants plan);
        check_bool "check kept" true ((Instr.Item.stats_of plan).checks >= 1));
  ]

(* The round-based shadow DCE that [Instr.Compress.run] replaced, kept as
   a test-only oracle: each round kills every defined register that no
   surviving action reads, until a round kills nothing; then the dead
   registers' [Set_var]s are dropped. The plan is flattened into arrays
   first only so that the analogs' thousands of rounds stay cheap. *)
let reference_dce (plan : Instr.Item.plan) : int =
  let acts =
    Array.of_list
      (List.concat_map
         (List.map (fun (it : Instr.Item.item) -> it.act))
         (Array.to_list plan.items)
      @ List.concat (List.of_seq (Hashtbl.to_seq_values plan.entry_items)))
  in
  let reads = Array.map (fun a -> Array.of_list (Instr.Compress.shadow_reads a)) acts in
  let def = Array.map (function Instr.Item.Set_var (x, _) -> x | _ -> -1) acts in
  let nvars = Array.fold_left (Array.fold_left max) (Array.fold_left max 0 def) reads + 1 in
  let alive = Array.make (Array.length acts) true in
  let dead = Array.make nvars false in
  let read = Array.make nvars false in
  let continue_ = ref true in
  while !continue_ do
    continue_ := false;
    Array.fill read 0 nvars false;
    Array.iteri (fun i rs -> if alive.(i) then Array.iter (fun v -> read.(v) <- true) rs) reads;
    Array.iteri
      (fun i x ->
        if alive.(i) && x >= 0 && not read.(x) then begin
          alive.(i) <- false;
          dead.(x) <- true;
          continue_ := true
        end)
      def
  done;
  let removed = ref 0 in
  let sweep keep xs =
    let kept = List.filter keep xs in
    removed := !removed + List.length xs - List.length kept;
    kept
  in
  let live = function Instr.Item.Set_var (x, _) -> not dead.(x) | _ -> true in
  Array.iteri
    (fun i items -> plan.items.(i) <- sweep (fun (it : Instr.Item.item) -> live it.act) items)
    plan.items;
  Hashtbl.filter_map_inplace (fun _ acts -> Some (sweep live acts)) plan.entry_items;
  !removed

let copy_plan (plan : Instr.Item.plan) : Instr.Item.plan =
  Marshal.from_string (Marshal.to_string plan []) 0

let entry_bindings (plan : Instr.Item.plan) =
  Hashtbl.fold (fun fn acts acc -> (fn, acts) :: acc) plan.entry_items []
  |> List.sort compare

(* [Compress.run] removes what the oracle removes, from the plan as built
   and, with [raw], before folding as well; a second run finds nothing.
   Returns the number removed. *)
let check_dce_matches_reference ~raw what (plan : Instr.Item.plan) =
  List.fold_left
    (fun total fold ->
      let ours = copy_plan plan and theirs = copy_plan plan in
      if fold then begin
        ignore (Instr.Compress.fold_constants ours);
        ignore (Instr.Compress.fold_constants theirs)
      end;
      let what = if fold then what ^ " folded" else what in
      let removed = Instr.Compress.run ours in
      check_int (what ^ ": count") (reference_dce theirs) removed;
      check_bool (what ^ ": items") true (ours.items = theirs.items);
      check_bool (what ^ ": entry items") true
        (entry_bindings ours = entry_bindings theirs);
      check_int (what ^ ": idempotent") 0 (Instr.Compress.run ours);
      total + removed)
    0
    (if raw then [ false; true ] else [ true ])

(* Every variant's plan at O1 and O2. *)
let dce_against_reference ~raw what src =
  List.fold_left
    (fun total level ->
      let _, a = analyze ~level src in
      List.fold_left
        (fun total v ->
          let plan, _ = Usher.Pipeline.plan_for a v in
          total
          + check_dce_matches_reference ~raw
              (Printf.sprintf "%s %s %s" what
                 (Optim.Pipeline.level_to_string level)
                 (Usher.Config.variant_name v))
              plan)
        total Usher.Config.all_variants)
    0 [ Optim.Pipeline.O1; Optim.Pipeline.O2 ]

let hand_plan ?(entry = []) (acts : Instr.Item.action list) : Instr.Item.plan =
  let entry_items = Hashtbl.create 1 in
  if entry <> [] then Hashtbl.replace entry_items "main" entry;
  {
    items = Array.of_list (List.map (fun act -> [ { Instr.Item.act; pos = After } ]) acts);
    entry_items;
    ret_slot = 0;
  }

let compress_tests =
  let open Instr.Item in
  [
    tc "shadow dce matches the round-based reference on generated programs"
      (fun () ->
        let removed =
          List.fold_left ( + ) 0
            (List.init 25 (fun seed ->
                 dce_against_reference ~raw:true
                   (Printf.sprintf "gen seed %d" seed)
                   (Audit.Gen.source ~seed ())))
        in
        check_bool "some shadow defs were dead" true (removed > 0));
    (* Folded plans only, as the pipeline runs them: raw plans would double
       the oracle's thousands of rounds on the larger analogs. *)
    tc "shadow dce matches the round-based reference on the analogs" (fun () ->
        List.iter
          (fun (p : Workloads.Profile.t) ->
            ignore
              (dce_against_reference ~raw:false p.pname
                 (Workloads.Spec2000.source ~scale:3 p)))
          Workloads.Spec2000.all);
    tc "shadow dce removes a 20000-long dead chain" (fun () ->
        let n = 20_000 in
        let plan = hand_plan (List.init n (fun i -> Set_var (i + 1, Rvar i))) in
        check_int "whole chain" n (Instr.Compress.run plan);
        check_int "nothing left" 0 (stats_of plan).total_items);
    tc "shadow dce keeps dead cycles and self-reading phis" (fun () ->
        let cycle = [ Set_var (1, Rvar 2); Set_var (2, Rvar 1) ] in
        let phi = Set_var (3, Rphi [ (0, Ir.Types.Var 3); (1, Ir.Types.Cst 1) ]) in
        let plan =
          hand_plan (cycle @ [ Set_var (4, Rvar 1) ]) ~entry:[ phi; Set_var (5, Rvar 3) ]
        in
        let reference = copy_plan plan in
        check_int "only the cycle's and the phi's readers go" 2
          (Instr.Compress.run plan);
        check_int "reference agrees" 2 (reference_dce reference);
        check_bool "cycle kept" true
          (List.map (fun (it : item) -> it.act) (List.concat (Array.to_list plan.items))
          = cycle);
        check_bool "phi kept" true (entry_items plan "main" = [ phi ]);
        check_int "second run" 0 (Instr.Compress.run plan));
    tc "shadow folding demotes along chains and keeps optimistic cycles" (fun () ->
        let chain =
          hand_plan
            ((Set_var (0, Rconst false) :: List.init 100 (fun i -> Set_var (i + 1, Rvar i)))
            @ [ Check (Ir.Types.Var 100) ])
        in
        check_int "an undefined root keeps the whole chain" 0
          (Instr.Compress.fold_constants chain);
        let cycle =
          hand_plan
            [ Set_var (1, Rphi [ (0, Ir.Types.Cst 1); (1, Ir.Types.Var 2) ]);
              Set_var (2, Rvar 1); Check (Ir.Types.Var 2) ]
        in
        check_int "a constant-rooted cycle folds away" 3
          (Instr.Compress.fold_constants cycle));
  ]

let suites =
  [ ("mem2reg", mem2reg_tests); ("inline", inline_tests);
    ("scalar-opts", scalar_tests); ("shadow-compress", compress_tests) ]
