(* Dominance, Andersen points-to, call graph and mod/ref tests. *)

open Helpers
module D = Analysis.Dominance

(* Build a bare CFG with the given edges for dominance tests. *)
let cfg_of edges nblocks =
  let p = Ir.Prog.create () in
  let b = Ir.Builder.create p ~fname:"main" in
  let ids = Array.init nblocks (fun _ -> Ir.Builder.new_block b) in
  Array.iteri
    (fun i _ ->
      Ir.Builder.switch_to b ids.(i);
      match List.filter (fun (s, _) -> s = i) edges |> List.map snd with
      | [] -> Ir.Builder.terminate b (Ir.Types.Ret None)
      | [ t ] -> Ir.Builder.terminate b (Ir.Types.Jmp t)
      | [ t1; t2 ] ->
        Ir.Builder.terminate b (Ir.Types.Br (Ir.Types.Cst 1, t1, t2))
      | _ -> invalid_arg "cfg_of: more than two successors")
    ids;
  Ir.Builder.finish b

let dominance_tests =
  [
    tc "diamond: join dominated by fork only" (fun () ->
        (*    0 -> 1, 2 ; 1 -> 3 ; 2 -> 3 *)
        let f = cfg_of [ (0, 1); (0, 2); (1, 3); (2, 3) ] 4 in
        let d = D.compute f in
        check_bool "idom 3 = 0" true (D.idom d 3 = Some 0);
        check_bool "0 dom 3" true (D.dominates d 0 3);
        check_bool "1 !dom 3" false (D.dominates d 1 3);
        check_bool "reflexive" true (D.dominates d 1 1));
    tc "diamond frontiers" (fun () ->
        let f = cfg_of [ (0, 1); (0, 2); (1, 3); (2, 3) ] 4 in
        let d = D.compute f in
        check_ints "df 1" [ 3 ] (D.frontier d 1);
        check_ints "df 2" [ 3 ] (D.frontier d 2);
        check_ints "df 0" [] (D.frontier d 0));
    tc "loop: header in its own frontier" (fun () ->
        (* 0 -> 1 ; 1 -> 2, 3 ; 2 -> 1 *)
        let f = cfg_of [ (0, 1); (1, 2); (1, 3); (2, 1) ] 4 in
        let d = D.compute f in
        check_bool "df 2 contains 1" true (List.mem 1 (D.frontier d 2));
        check_bool "1 dominates 2" true (D.dominates d 1 2);
        check_bool "2 !dom 3" false (D.dominates d 2 3));
    tc "unreachable blocks excluded" (fun () ->
        let f = cfg_of [ (0, 1); (2, 1) ] 3 in
        let d = D.compute f in
        check_bool "2 unreachable" false (D.reachable d 2);
        check_bool "1 reachable" true (D.reachable d 1));
    tc "label dominance within a block is positional" (fun () ->
        let p = front "int main() { int x = 1; int y = x + 1; print(y); return y; }" in
        let f = Ir.Prog.get_func p "main" in
        let d = D.compute f in
        let pos = D.label_positions f in
        let labels =
          List.map (fun (i : Ir.Types.instr) -> i.lbl) f.blocks.(0).instrs
        in
        match labels with
        | l1 :: l2 :: _ ->
          check_bool "l1 dom l2" true (D.label_dominates d pos l1 l2);
          check_bool "l2 !dom l1" false (D.label_dominates d pos l2 l1)
        | _ -> Alcotest.fail "expected two instructions");
  ]

(* ---- Andersen ---- *)

let with_pa src k =
  let prog = front src in
  let pa = Analysis.Andersen.run prog in
  k prog pa

let andersen_tests =
  [
    tc "alloc and copy" (fun () ->
        with_pa "int main() { int x; int *p = &x; int *q = p; return *q; }"
          (fun prog pa ->
            check_bool "load sees x" true (loads_pts prog pa = [ [ "x" ] ])));
    tc "two targets through branches" (fun () ->
        with_pa
          "int main() { int x; int y; int *p; x = 1; y = 2;\n\
           if (x) { p = &x; } else { p = &y; } return *p; }"
          (fun prog pa ->
            check_bool "load sees both" true
              (List.mem [ "x"; "y" ] (loads_pts prog pa))));
    tc "field sensitivity separates struct fields" (fun () ->
        with_pa
          "struct S { int a; int b; };\n\
           int main() { struct S s; int *p = &s.a; int *q = &s.b;\n\
           *p = 1; *q = 2; return *p; }"
          (fun prog pa ->
            check_bool "stores" true
              (stores_pts prog pa = [ [ "s.f0" ]; [ "s.f1" ] ]);
            check_bool "load" true (loads_pts prog pa = [ [ "s.f0" ] ])));
    tc "field insensitivity collapses fields" (fun () ->
        let prog =
          front
            "struct S { int a; int b; };\n\
             int main() { struct S s; int *p = &s.b; *p = 2; return *p; }"
        in
        let pa =
          Analysis.Andersen.run
            ~config:{ Analysis.Andersen.field_sensitive = false; heap_cloning = true;
                      small_array_fields = 0 }
            prog
        in
        check_bool "collapsed" true (loads_pts prog pa = [ [ "s" ] ]));
    tc "arrays are analysed as a whole" (fun () ->
        with_pa "int main() { int a[4]; int *p = &a[2]; *p = 1; return a[3]; }"
          (fun prog pa ->
            check_bool "stores" true (stores_pts prog pa = [ [ "a" ] ]);
            check_bool "loads" true (loads_pts prog pa = [ [ "a" ] ])));
    tc "loads and stores flow through the heap" (fun () ->
        with_pa
          "int main() { int x; x = 1; int **h = (int**)malloc(1);\n\
           *h = &x; int *r = *h; return *r; }"
          (fun prog pa ->
            (* the final load dereferences r, which must point to x *)
            let last = List.nth (loads_pts prog pa) (List.length (loads_pts prog pa) - 1) in
            check_bool "r -> x" true (last = [ "x" ])));
    tc "heap cloning distinguishes wrapper call sites" (fun () ->
        with_pa
          "int *mk(int v) { int *p = (int*)malloc(1); *p = v; return p; }\n\
           int main() { int *a = mk(1); int *b = mk(2); return *a + *b; }"
          (fun prog pa ->
            check_int "wrapper detected" 1 (Hashtbl.length pa.wrappers);
            match loads_pts ~fname:"main" prog pa with
            | [ la; lb ] ->
              check_int "a singleton" 1 (List.length la);
              check_int "b singleton" 1 (List.length lb);
              check_bool "distinct clones" true (la <> lb)
            | other ->
              Alcotest.failf "expected two loads in main, got %d" (List.length other)));
    tc "no cloning without the knob" (fun () ->
        let prog =
          front
            "int *mk(int v) { int *p = (int*)malloc(1); *p = v; return p; }\n\
             int main() { int *a = mk(1); int *b = mk(2); return *a + *b; }"
        in
        let pa =
          Analysis.Andersen.run
            ~config:{ Analysis.Andersen.field_sensitive = true; heap_cloning = false;
                      small_array_fields = 0 }
            prog
        in
        match loads_pts ~fname:"main" prog pa with
        | [ la; lb ] -> check_bool "same object" true (la = lb)
        | _ -> Alcotest.fail "expected two loads in main");
    tc "indirect calls resolved on the fly" (fun () ->
        let prog =
          front
            "int f1(int x) { return x + 1; }\n\
             int f2(int x) { return x * 2; }\n\
             int main() { int *g; if (1) { g = (int*)f1; } else { g = (int*)f2; }\n\
             return g(3); }"
        in
        let pa = Analysis.Andersen.run prog in
        let call =
          find_instr
            (function Ir.Types.Call { callee = Ir.Types.Indirect _; _ } -> true | _ -> false)
            prog
        in
        match call with
        | Some (_, i) ->
          let targets = Analysis.Andersen.call_targets pa i |> List.sort compare in
          check_bool "both targets" true (targets = [ "f1"; "f2" ])
        | None -> Alcotest.fail "no indirect call");
  ]

(* ---- call graph and mod/ref ---- *)

let with_cg src k =
  let prog = front src in
  let pa = Analysis.Andersen.run prog in
  let cg = Analysis.Callgraph.build prog pa in
  k prog pa cg

(* Bottom-up SCC order: Modref.compute folds over it, so every callee's
   SCC must precede its callers'. *)

let scc_index_of (sccs : Ir.Types.fname list array) :
    (Ir.Types.fname, int) Hashtbl.t =
  let idx = Hashtbl.create 16 in
  Array.iteri (fun i fns -> List.iter (fun f -> Hashtbl.replace idx f i) fns) sccs;
  idx

let funcs_of (prog : Ir.Prog.t) : Ir.Types.func list =
  List.rev (Ir.Prog.fold_funcs (fun acc f -> f :: acc) [] prog)

let check_bottom_up ~what (prog : Ir.Prog.t) (cg : Analysis.Callgraph.t) =
  let sccs = Analysis.Callgraph.bottom_up_sccs cg in
  let idx = scc_index_of sccs in
  (* every function appears in exactly one SCC *)
  let total = Array.fold_left (fun n l -> n + List.length l) 0 sccs in
  check_int (what ^ ": SCCs partition the functions")
    (List.length (funcs_of prog))
    total;
  check_int (what ^ ": no function in two SCCs")
    total (Hashtbl.length idx);
  List.iter
    (fun (f : Ir.Types.func) ->
      let fn = f.Ir.Types.fname in
      let fi = Hashtbl.find idx fn in
      List.iter
        (fun callee ->
          match Hashtbl.find_opt idx callee with
          | None -> ()  (* unresolved external *)
          | Some ci ->
            if ci > fi then
              Alcotest.failf
                "%s: callee %s (scc %d) does not precede caller %s (scc %d)"
                what callee ci fn fi
            else if ci = fi then
              (* same SCC: both on a cycle, so both must be recursive *)
              check_bool
                (Printf.sprintf "%s: %s and %s share an SCC => recursive" what
                   fn callee)
                true
                (fn = callee
                || Analysis.Callgraph.is_recursive cg fn
                   && Analysis.Callgraph.is_recursive cg callee))
        (Analysis.Callgraph.callees_of cg fn))
    (funcs_of prog);
  (* is_recursive agrees with the condensation: true iff the function's
     SCC is nontrivial or it calls itself directly *)
  List.iter
    (fun (f : Ir.Types.func) ->
      let fn = f.Ir.Types.fname in
      let member_count =
        Array.fold_left
          (fun n l -> if List.mem fn l then n + List.length l else n)
          0 sccs
      in
      let self_loop = List.mem fn (Analysis.Callgraph.callees_of cg fn) in
      check_bool
        (Printf.sprintf "%s: is_recursive(%s) matches SCC membership" what fn)
        (member_count > 1 || self_loop)
        (Analysis.Callgraph.is_recursive cg fn))
    (funcs_of prog)

let test_bottom_up_handwritten () =
  (* self-recursion, a mutually recursive pair, and an acyclic tail *)
  let src =
    "int self(int n) { if (n <= 0) { return 1; } return self(n - 1) + 1; }\n\
     int mb(int n) { if (n <= 0) { return 0; } return ma(n - 1); }\n\
     int ma(int n) { if (n <= 0) { return 0; } return mb(n - 1); }\n\
     int leafy(int n) { return n + 2; }\n\
     int main() { print(self(3) + ma(4) + leafy(5)); return 0; }\n"
  in
  let prog, a = analyze src in
  check_bottom_up ~what:"handwritten" prog a.cg;
  let cg = a.cg in
  check_bool "self is recursive" true (Analysis.Callgraph.is_recursive cg "self");
  check_bool "ma is recursive" true (Analysis.Callgraph.is_recursive cg "ma");
  check_bool "mb is recursive" true (Analysis.Callgraph.is_recursive cg "mb");
  check_bool "leafy is not recursive" false
    (Analysis.Callgraph.is_recursive cg "leafy");
  check_bool "main is not recursive" false
    (Analysis.Callgraph.is_recursive cg "main");
  (* ma and mb share an SCC; self and leafy have their own *)
  let sccs = Analysis.Callgraph.bottom_up_sccs cg in
  let idx = scc_index_of sccs in
  check_int "ma and mb share an SCC" (Hashtbl.find idx "ma")
    (Hashtbl.find idx "mb");
  check_bool "self is alone in its SCC" true
    (Hashtbl.find idx "self" <> Hashtbl.find idx "ma")

let bottom_up_prop =
  QCheck.Test.make ~count:60
    ~name:"bottom_up_sccs: callees precede callers (random call graphs)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      (* the fuzz generator's call graphs mix direct calls,
         function-pointer dispatch and the mutually recursive shape *)
      let prog, a = analyze (Audit.Gen.source ~seed ()) in
      check_bottom_up ~what:(Printf.sprintf "seed %d" seed) prog a.cg;
      true)

let callgraph_tests =
  [
    tc "direct recursion detected" (fun () ->
        with_cg "int f(int n) { if (n < 1) { return 0; } return f(n - 1) + 1; }\n\
                 int main() { return f(3); }"
          (fun _ _ cg ->
            check_bool "f rec" true (Analysis.Callgraph.is_recursive cg "f");
            check_bool "main not" false (Analysis.Callgraph.is_recursive cg "main")));
    tc "mutual recursion forms one SCC" (fun () ->
        with_cg
          "int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }\n\
           int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }\n\
           int main() { return even(4); }"
          (fun _ _ cg ->
            check_bool "even rec" true (Analysis.Callgraph.is_recursive cg "even");
            check_bool "odd rec" true (Analysis.Callgraph.is_recursive cg "odd")));
    tc "bottom-up order puts callees first" (fun () ->
        with_cg "int leaf() { return 1; } int mid() { return leaf(); }\n\
                 int main() { return mid(); }"
          (fun _ _ cg ->
            let order =
              Array.to_list (Analysis.Callgraph.bottom_up_sccs cg) |> List.concat
            in
            let idx n =
              let rec go i = function
                | [] -> -1
                | x :: _ when x = n -> i
                | _ :: r -> go (i + 1) r
              in
              go 0 order
            in
            check_bool "leaf before mid" true (idx "leaf" < idx "mid");
            check_bool "mid before main" true (idx "mid" < idx "main")));
    tc "handwritten recursion shapes" test_bottom_up_handwritten;
    QCheck_alcotest.to_alcotest bottom_up_prop;
  ]

let modref_tests =
  [
    tc "callee stores appear in caller MOD" (fun () ->
        with_cg
          "int g;\n\
           void set(int v) { g = v; }\n\
           int main() { set(3); return g; }"
          (fun prog pa cg ->
            let mr = Analysis.Modref.compute prog pa cg in
            let s = Analysis.Modref.summary mr "main" in
            let names =
              Analysis.Bitset.elements s.mmod
              |> List.map (Analysis.Objects.loc_name pa.objects)
            in
            check_bool "g modified" true (List.mem "g" names)));
    tc "callee locals are dropped from summaries" (fun () ->
        with_cg
          "int leafv() { int t; t = 1; int *p = &t; *p = 2; return *p; }\n\
           int main() { return leafv(); }"
          (fun prog pa cg ->
            let mr = Analysis.Modref.compute prog pa cg in
            let s = Analysis.Modref.summary mr "main" in
            let names =
              Analysis.Bitset.elements s.mmod
              |> List.map (Analysis.Objects.loc_name pa.objects)
            in
            check_bool "t dropped" false (List.mem "t" names)));
    tc "caller stack cells modified via pointer stay visible" (fun () ->
        with_cg
          "void put(int *p, int v) { *p = v; }\n\
           int main() { int x; put(&x, 5); return x; }"
          (fun prog pa cg ->
            let mr = Analysis.Modref.compute prog pa cg in
            let chi = Analysis.Modref.call_mod mr
                (match find_instr (function Ir.Types.Call _ -> true | _ -> false) prog with
                 | Some (_, i) -> i.lbl
                 | None -> -1)
            in
            let names =
              Analysis.Bitset.elements chi
              |> List.map (Analysis.Objects.loc_name pa.objects)
            in
            check_bool "x in call chi" true (List.mem "x" names)));
  ]

let suites =
  [ ("dominance", dominance_tests); ("andersen", andersen_tests);
    ("callgraph", callgraph_tests); ("modref", modref_tests) ]

(* ---- small-array extension (the paper's future work on arrays) ---- *)

let small_array_tests =
  [
    Helpers.tc "small constant arrays can be analysed per cell" (fun () ->
        let prog = front
            "int main() { int a[4]; a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;\n\
             int *p = &a[2]; *p = 9; return a[2]; }" in
        let pa =
          Analysis.Andersen.run
            ~config:{ Analysis.Andersen.field_sensitive = true;
                      heap_cloning = true; small_array_fields = 8 }
            prog
        in
        (* the &a[2] pointer resolves to exactly one cell *)
        check_bool "per-cell pts" true
          (List.mem [ "a.f2" ] (stores_pts prog pa)));
    Helpers.tc "dynamic indices cover every cell" (fun () ->
        let prog = front
            "int main() { int a[3]; int i = input();\n\
             a[i % 3] = 7; return 0; }" in
        let pa =
          Analysis.Andersen.run
            ~config:{ Analysis.Andersen.field_sensitive = true;
                      heap_cloning = true; small_array_fields = 8 }
            prog
        in
        check_bool "all cells" true
          (List.mem [ "a.f0"; "a.f1"; "a.f2" ] (stores_pts prog pa)));
    Helpers.tc "large arrays stay collapsed" (fun () ->
        let prog = front "int main() { int a[64]; a[5] = 1; return a[5]; }" in
        let pa =
          Analysis.Andersen.run
            ~config:{ Analysis.Andersen.field_sensitive = true;
                      heap_cloning = true; small_array_fields = 8 }
            prog
        in
        check_bool "collapsed" true (stores_pts prog pa = [ [ "a" ] ]));
    Helpers.tc "per-cell arrays prove partial initialization" (fun () ->
        (* with collapsed arrays the read of a[0] is ⊥; per-cell it is ⊤ *)
        let src =
          "int main() { int a[2]; a[0] = 5; int v = a[0];\n\
           if (v > 1) { print(v); } return 0; }"
        in
        let knobs8 =
          { Usher.Config.default_knobs with small_array_fields = 8 }
        in
        let s0 = static_stats src Usher.Config.Usher_full in
        let s8 = static_stats ~knobs:knobs8 src Usher.Config.Usher_full in
        check_bool "baseline keeps the check" true (s0.checks >= 1);
        check_int "per-cell proves it defined" 0 s8.checks);
    Helpers.tc "detection parity holds with the extension on" (fun () ->
        let src =
          "int main() { int a[3]; a[0] = 1;\n\
           int v = a[2]; if (v > 0) { print(1); } return 0; }"
        in
        let knobs8 =
          { Usher.Config.default_knobs with small_array_fields = 8 }
        in
        let gt = gt_uses src in
        check_int "one gt" 1 (List.length gt);
        List.iter
          (fun variant ->
            let det = detections ~knobs:knobs8 src variant in
            check_bool "detected" true
              (List.for_all (fun l -> List.mem l det) gt))
          Usher.Config.all_variants);
  ]

let suites = suites @ [ ("small-arrays", small_array_tests) ]
