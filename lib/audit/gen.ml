(* Generative fuzzing front end: a seeded TinyC program generator.

   Unlike the workload generator (lib/workloads/gen.ml), which emits
   concrete syntax for realistic benchmark *profiles*, this one builds
   [Tinyc.Ast.program] values directly and is weighted toward the
   constructs that stress Usher's precision machinery:

   - address-taken locals and aliasing stores (two pointers into the
     same cell, conditional re-aiming — semi-strong vs weak updates);
   - function pointers flowing through [int*] casts and an apply helper
     (indirect-call VFG edges, callgraph over-approximation);
   - partial struct initialization on the stack and on the heap
     (field-sensitive Γ, μ/χ placement);
   - partially-initialized arrays and malloc'd buffers (weak updates,
     array smearing);
   - loops carrying a possibly-undefined value across iterations (the
     classic Γ fixpoint shape: the first trip reads ⊥, later trips don't).

   Generated programs are:
   - deterministic: the same seed always yields the structurally
     identical AST (the only randomness source is [Workloads.Rng]);
   - always terminating: every loop is counted with a literal bound and
     a structural [i = i + 1] step, and every call either targets a
     function generated *earlier* or descends a mutually recursive pair
     whose depth parameter is a literal decremented to a structural
     [d <= 0] base case — the call graph has cycles (the recursive
     shape's two-function SCC) but every descent is depth-bounded;
   - runtime-safe: no division or shift whose right operand can be zero
     or out of range, every array index is masked into bounds with
     [& (size-1)] over power-of-two sizes, and no pointer is ever
     dereferenced before it is aimed at a real cell. Reads of
     *uninitialized scalars* are deliberate and common — the
     interpreter models those with deterministic garbage and records
     the ground-truth use, which is exactly what the differential
     oracle wants to cross-check.

   Every construct emitted here round-trips through
   [Tinyc.Pretty.program_to_string] and [Tinyc.Parser.parse_program]
   back to the structurally identical AST — a qcheck property in
   test/test_fuzz.ml enforces it over this generator. *)

open Tinyc.Ast
module Rng = Workloads.Rng

(* ---- generator state ---- *)

type ctx = {
  rng : Rng.t;
  mutable uid : int;
  mutable helpers : string list;     (* int(int) helpers, oldest first *)
  mutable apply_fn : string option;  (* the int(int*,int) trampoline *)
  mutable structs : (string * string list) list;  (* name, int fields *)
  mutable globals : string list;                  (* initialized int globals *)
  mutable garrays : (string * int) list;          (* global arrays, pow2 size *)
  mutable items_rev : item list;
}

let fresh ctx prefix =
  ctx.uid <- ctx.uid + 1;
  Printf.sprintf "%s%d" prefix ctx.uid

let push ctx it = ctx.items_rev <- it :: ctx.items_rev

(* ---- per-function environment ---- *)

type fenv = {
  mutable def_ints : string list;    (* definitely-initialized ints *)
  mutable undef_ints : string list;  (* possibly-uninitialized ints *)
}

(* ---- safe expressions ---- *)

let lit ctx = Eint (Rng.int ctx.rng 64)

(* A variable that is definitely initialized (or a literal fallback). *)
let def_var ctx (fe : fenv) : expr =
  match fe.def_ints with
  | [] -> lit ctx
  | vs -> Eident (Rng.choose ctx.rng vs)

(* A possibly-undefined variable, when one exists. *)
let undef_var ctx (fe : fenv) : expr option =
  match fe.undef_ints with
  | [] -> None
  | vs -> Some (Eident (Rng.choose ctx.rng vs))

let global_var ctx : expr option =
  match ctx.globals with
  | [] -> None
  | gs -> Some (Eident (Rng.choose ctx.rng gs))

(* Division and modulo right operands are forced nonzero structurally:
   either a positive literal or [((e & 15) + 1)]. The logical operators
   are evaluated non-short-circuit by the front end, so a guard could
   never protect a zero divisor anyway. *)
let nonzero ctx (e : expr) : expr =
  if Rng.bool ctx.rng then Eint (1 + Rng.int ctx.rng 15)
  else Ebinop (Badd, Ebinop (Band, e, Eint 15), Eint 1)

(* Depth-bounded random int-valued expression over initialized state.
   [allow_undef] additionally draws from the possibly-⊥ locals, which is
   how undef values get *used* (arithmetic only — never as a pointer,
   index, divisor or shift amount). *)
let rec int_expr ?(allow_undef = false) ctx (fe : fenv) (depth : int) : expr =
  let atom () =
    let choices =
      [ (fun () -> lit ctx); (fun () -> def_var ctx fe) ]
      @ (match global_var ctx with
        | Some g when Rng.pct ctx.rng 50 -> [ (fun () -> g) ]
        | _ -> [])
      @
      match undef_var ctx fe with
      | Some u when allow_undef -> [ (fun () -> u) ]
      | _ -> []
    in
    (Rng.choose ctx.rng choices) ()
  in
  if depth <= 0 then atom ()
  else
    match Rng.int ctx.rng 10 with
    | 0 | 1 | 2 -> atom ()
    | 3 ->
      let op = Rng.choose ctx.rng [ Badd; Bsub; Bmul; Band; Bor; Bxor ] in
      Ebinop (op, int_expr ~allow_undef ctx fe (depth - 1),
              int_expr ~allow_undef ctx fe (depth - 1))
    | 4 ->
      let op = Rng.choose ctx.rng [ Bdiv; Brem ] in
      let l = int_expr ~allow_undef ctx fe (depth - 1) in
      Ebinop (op, l, nonzero ctx (def_var ctx fe))
    | 5 ->
      let op = Rng.choose ctx.rng [ Bshl; Bshr ] in
      Ebinop (op, int_expr ~allow_undef ctx fe (depth - 1),
              Eint (Rng.int ctx.rng 6))
    | 6 ->
      let op = Rng.choose ctx.rng [ Uneg; Unot; Ulnot ] in
      Eunop (op, int_expr ~allow_undef ctx fe (depth - 1))
    | 7 ->
      Eternary
        ( cond_expr ctx fe,
          int_expr ~allow_undef ctx fe (depth - 1),
          int_expr ~allow_undef ctx fe (depth - 1) )
    | _ ->
      let op = Rng.choose ctx.rng [ Badd; Bsub; Bxor ] in
      Ebinop (op, atom (), int_expr ~allow_undef ctx fe (depth - 1))

(* Branch/loop conditions stay over defined values so control flow is
   deterministic w.r.t. the ground-truth semantics the oracle replays. *)
and cond_expr ctx (fe : fenv) : expr =
  let op = Rng.choose ctx.rng [ Blt; Ble; Bgt; Bge; Beq; Bne ] in
  let base = Ebinop (op, def_var ctx fe, int_expr ctx fe 1) in
  match Rng.int ctx.rng 4 with
  | 0 -> Ebinop (Bland, base, Ebinop (Bne, def_var ctx fe, lit ctx))
  | 1 -> Ebinop (Blor, base, Ebinop (Bgt, def_var ctx fe, lit ctx))
  | _ -> base

(* A literal-bounded counted loop: [for (i = 0; i < n; i = i + 1) body].
   The only loop shape the generator emits — termination by construction. *)
let counted_for ctx (fe : fenv) ~(iters : int) (body : string -> stmt list) :
    stmt =
  let i = fresh ctx "i" in
  (* the counter is in scope only while the body is being built — it must
     not leak into expressions generated outside this loop (statement
     lists are built in unspecified evaluation order) *)
  let saved = fe.def_ints in
  fe.def_ints <- i :: fe.def_ints;
  let b = body i in
  fe.def_ints <- saved;
  Sfor
    ( Some (Sdecl (Tint, i, Some (Eint 0))),
      Some (Ebinop (Blt, Eident i, Eint iters)),
      Some (Sassign (Eident i, Ebinop (Badd, Eident i, Eint 1))),
      b )

(* Occasionally wrap a statement run in an explicit block — [Sblock]
   must round-trip through the printer/parser like everything else. *)
let maybe_block ctx (ss : stmt list) : stmt list =
  if List.length ss > 1 && Rng.pct ctx.rng 20 then [ Sblock ss ] else ss

(* A call to an already-generated helper (acyclic call graph). *)
let helper_call ctx (fe : fenv) : expr option =
  match ctx.helpers with
  | [] -> None
  | hs -> Some (Ecall (Rng.choose ctx.rng hs, [ int_expr ctx fe 1 ]))

(* ---- function shapes ---- *)
(* Each shape appends one [int name(int n)] helper to the program and
   returns its name. Bodies end in [return]; every return value flows
   from the shape's interesting dataflow so detections are observable. *)

(* Loop-carried undef: the first iteration reads ⊥, later ones do not.
   Γ must keep the node ⊥ (the backedge cannot kill the initial read). *)
let shape_loop_carry ctx name =
  let fe = { def_ints = [ "n" ]; undef_ints = [] } in
  let s = fresh ctx "s" and c = fresh ctx "c" in
  fe.def_ints <- s :: fe.def_ints;
  fe.undef_ints <- [ c ];
  let body =
    [
      Sdecl (Tint, s, Some (Eint 0));
      Sdecl (Tint, c, None);
      counted_for ctx fe ~iters:(2 + Rng.int ctx.rng 8) (fun i ->
          [
            Sassign (Eident s, Ebinop (Badd, Eident s, Eident c));
            Sassign
              ( Eident c,
                Ebinop (Badd, Eident i, int_expr ctx fe 1) );
          ]);
      Sreturn (Some (Ebinop (Badd, Eident s, int_expr ctx fe 2)));
    ]
  in
  push ctx
    (Ifunc { fret = Tint; fdname = name; fparams = [ (Tint, "n") ]; fbody = body })

(* Address-taken locals and aliasing stores: [p] and [q] both reach [x],
   a conditional re-aims [q] at [y] — strong vs semi-strong vs weak
   update classification has to get every store right. *)
let shape_addr_alias ctx name =
  let fe = { def_ints = [ "n" ]; undef_ints = [] } in
  let x = fresh ctx "x" and y = fresh ctx "y" in
  let p = fresh ctx "p" and q = fresh ctx "q" in
  let mk_undef_y = Rng.bool ctx.rng in
  let body =
    [
      Sdecl (Tint, x, None);
      Sdecl (Tint, y, if mk_undef_y then None else Some (lit ctx));
      Sdecl (Tptr Tint, p, Some (Eaddr (Eident x)));
      Sdecl (Tptr Tint, q, Some (Eident p));
      (* the store through p defines x *)
      Sassign (Ederef (Eident p), int_expr ctx fe 2);
      Sif
        ( cond_expr ctx fe,
          [ Sassign (Eident q, Eaddr (Eident y)) ],
          maybe_block ctx
            [ Sassign (Ederef (Eident q), Ebinop (Badd, Ederef (Eident p), Eint 1)) ]
        );
      (* q may aim at x or y: a weak (points-to set of 2) store *)
      Sassign (Ederef (Eident q), Ebinop (Badd, def_var ctx fe, lit ctx));
      (* y may still be ⊥ on the branch that re-aimed nothing *)
      Sreturn
        (Some
           (Ebinop (Badd, Eident x, Ebinop (Badd, Eident y, Ederef (Eident q)))));
    ]
  in
  fe.undef_ints <- (if mk_undef_y then [ y ] else []);
  push ctx
    (Ifunc { fret = Tint; fdname = name; fparams = [ (Tint, "n") ]; fbody = body })

(* Partial struct initialization, stack or heap: some fields stay ⊥ and
   field-sensitive Γ must keep them apart from the initialized ones. *)
let shape_partial_struct ctx name =
  let sname, sfields =
    match ctx.structs with
    | l when l <> [] && Rng.pct ctx.rng 70 -> Rng.choose ctx.rng l
    | _ ->
      let sn = fresh ctx "S" in
      let nf = 2 + Rng.int ctx.rng 3 in
      let fields = List.init nf (fun k -> Printf.sprintf "f%d" k) in
      push ctx
        (Istruct { sname = sn; sfields = List.map (fun f -> (f, Tint)) fields });
      ctx.structs <- (sn, fields) :: ctx.structs;
      (sn, fields)
  in
  let fe = { def_ints = [ "n" ]; undef_ints = [] } in
  let heap = Rng.bool ctx.rng in
  let v = fresh ctx "sv" in
  let acc field obj = if heap then Earrow (obj, field) else Efield (obj, field) in
  let obj = Eident v in
  (* initialize a strict prefix of the fields; read a random suffix *)
  let ninit = max 1 (Rng.int ctx.rng (List.length sfields)) in
  let inits =
    List.filteri (fun k _ -> k < ninit) sfields
    |> List.map (fun f -> Sassign (acc f obj, int_expr ctx fe 1))
  in
  let read_f = Rng.choose ctx.rng sfields in
  let decl =
    if heap then
      Sdecl
        ( Tptr (Tstruct sname),
          v,
          Some
            (Ecast
               ( Tptr (Tstruct sname),
                 Ecall ("malloc", [ Esizeof (Tstruct sname) ]) )) )
    else Sdecl (Tstruct sname, v, None)
  in
  let body =
    [ decl ] @ inits
    @ [
        Sreturn
          (Some
             (Ebinop
                ( Badd,
                  acc (List.hd sfields) obj,
                  Ebinop (Badd, acc read_f obj, def_var ctx fe) )));
      ]
  in
  push ctx
    (Ifunc { fret = Tint; fdname = name; fparams = [ (Tint, "n") ]; fbody = body })

(* Function pointers through an [int*]-cast and an apply trampoline:
   the indirect call's VFG return edges must cover every target. *)
let shape_fp_dispatch ctx name =
  (* the trampoline is shared per program; its [f(x)] call is indirect
     because [f] is a parameter, not a known function *)
  let ap =
    match ctx.apply_fn with
    | Some ap -> ap
    | None ->
      let ap = fresh ctx "fzap" in
      push ctx
        (Ifunc
           {
             fret = Tint;
             fdname = ap;
             fparams = [ (Tptr Tint, "f"); (Tint, "x") ];
             fbody = [ Sreturn (Some (Ecall ("f", [ Eident "x" ]))) ];
           });
      ctx.apply_fn <- Some ap;
      ap
  in
  (* two concrete targets from the already-generated helpers, or fresh
     leaves when none exist yet *)
  let leaf () =
    let l = fresh ctx "fzl" in
    push ctx
      (Ifunc
         {
           fret = Tint;
           fdname = l;
           fparams = [ (Tint, "x") ];
           fbody =
             [
               Sreturn
                 (Some
                    (Ebinop
                       ( Rng.choose ctx.rng [ Badd; Bxor; Bmul ],
                         Eident "x",
                         Eint (1 + Rng.int ctx.rng 9) )));
             ];
         });
    l
  in
  let t1 = match ctx.helpers with h :: _ when Rng.bool ctx.rng -> h | _ -> leaf () in
  let t2 = leaf () in
  let fe = { def_ints = [ "n" ]; undef_ints = [] } in
  let s = fresh ctx "s" in
  fe.def_ints <- s :: fe.def_ints;
  let call t arg = Ecall (ap, [ Ecast (Tptr Tint, Eident t); arg ]) in
  let body =
    [
      Sdecl (Tint, s, Some (Eint 0));
      counted_for ctx fe ~iters:(2 + Rng.int ctx.rng 6) (fun i ->
          [
            Sif
              ( Ebinop (Bgt, Ebinop (Brem, Eident i, Eint 2), Eint 0),
                [ Sassign (Eident s, Ebinop (Badd, Eident s, call t1 (Eident i))) ],
                [ Sassign (Eident s, Ebinop (Badd, Eident s, call t2 (Eident i))) ]
              );
          ]);
      Sreturn (Some (Eident s));
    ]
  in
  push ctx
    (Ifunc { fret = Tint; fdname = name; fparams = [ (Tint, "n") ]; fbody = body })

(* Partially-initialized array (local, global, or malloc'd): a strict
   prefix is written, reads are masked into the whole range, so some
   reads are of ⊥ cells — weak updates and array smearing territory. *)
let shape_array_walk ctx name =
  let size = Rng.choose ctx.rng [ 4; 8; 16 ] in
  let fe = { def_ints = [ "n" ]; undef_ints = [] } in
  let kind =
    let k = Rng.int ctx.rng 4 in
    if k = 3 && ctx.garrays = [] then 0 else k
  in
  let a = fresh ctx "a" in
  let decl, arr_name, arr_size =
    match kind with
    | 0 | 1 -> ([ Sdecl (Tarr (size, Tint), a, None) ], a, size)
    | 2 ->
      ( [
          Sdecl
            ( Tptr Tint,
              a,
              Some
                (Ecast
                   ( Tptr Tint,
                     Ecall
                       ( (if Rng.bool ctx.rng then "malloc" else "calloc"),
                         [ Eint size ] ) )) );
        ],
        a,
        size )
    | _ ->
      let g, gsize = Rng.choose ctx.rng ctx.garrays in
      ([], g, gsize)
  in
  let s = fresh ctx "s" in
  fe.def_ints <- s :: fe.def_ints;
  let filled = max 1 (arr_size - 1 - Rng.int ctx.rng 2) in
  let body =
    decl
    @ [
        Sdecl (Tint, s, Some (Eint 0));
        counted_for ctx fe ~iters:filled (fun i ->
            [
              Sassign
                ( Eindex (Eident arr_name, Eident i),
                  Ebinop (Badd, Ebinop (Bmul, Eident i, Eint 2), int_expr ctx fe 1)
                );
            ]);
        counted_for ctx fe ~iters:(2 + Rng.int ctx.rng 8) (fun i ->
            maybe_block ctx
              [
                Sassign
                  ( Eident s,
                    Ebinop
                      ( Badd,
                        Eident s,
                        Eindex
                          ( Eident arr_name,
                            Ebinop
                              ( Band,
                                Ebinop (Badd, Eident i, Eident s),
                                Eint (arr_size - 1) ) ) ) );
                Sif
                  ( Ebinop (Bgt, Eident s, Eint 1048576),
                    [ Sassign (Eident s, Ebinop (Bsub, Eident s, Eint 1048576)) ],
                    [] );
              ]);
        Sreturn (Some (Eident s));
      ]
  in
  push ctx
    (Ifunc { fret = Tint; fdname = name; fparams = [ (Tint, "n") ]; fbody = body })

(* Straight-line scalar dataflow with optional undef leaks folded into
   arithmetic, branches, a nested counted loop, maybe a helper call. *)
let shape_scalar_mix ctx name =
  let fe = { def_ints = [ "n" ]; undef_ints = [] } in
  let nvars = 2 + Rng.int ctx.rng 3 in
  let decls =
    List.init nvars (fun _ ->
        let v = fresh ctx "v" in
        if Rng.pct ctx.rng 35 then begin
          fe.undef_ints <- v :: fe.undef_ints;
          Sdecl (Tint, v, None)
        end
        else begin
          fe.def_ints <- v :: fe.def_ints;
          Sdecl (Tint, v, Some (int_expr ctx fe 1))
        end)
  in
  let s = fresh ctx "s" in
  fe.def_ints <- s :: fe.def_ints;
  let stmts = ref [] in
  let emit st = stmts := st :: !stmts in
  for _ = 1 to 2 + Rng.int ctx.rng 4 do
    match Rng.int ctx.rng 5 with
    | 0 ->
      emit
        (Sif
           ( cond_expr ctx fe,
             maybe_block ctx
               [ Sassign (Eident s, Ebinop (Badd, Eident s, int_expr ~allow_undef:true ctx fe 2)) ],
             if Rng.bool ctx.rng then
               [ Sassign (Eident s, Ebinop (Bxor, Eident s, int_expr ctx fe 1)) ]
             else [] ))
    | 1 ->
      emit
        (counted_for ctx fe ~iters:(1 + Rng.int ctx.rng 6) (fun i ->
             [
               Sassign
                 ( Eident s,
                   Ebinop (Badd, Eident s, Ebinop (Bmul, Eident i, def_var ctx fe))
                 );
             ]))
    | 2 -> (
      match helper_call ctx fe with
      | Some call -> emit (Sassign (Eident s, Ebinop (Badd, Eident s, call)))
      | None -> emit (Sassign (Eident s, Ebinop (Badd, Eident s, int_expr ctx fe 2))))
    | 3 ->
      (* define one of the ⊥ locals along the way: later reads are clean,
         earlier ones were not — Γ must keep the order straight *)
      (match fe.undef_ints with
      | v :: rest when Rng.bool ctx.rng ->
        fe.undef_ints <- rest;
        fe.def_ints <- v :: fe.def_ints;
        emit (Sassign (Eident v, int_expr ctx fe 1))
      | _ -> emit (Sassign (Eident s, Ebinop (Bsub, Eident s, int_expr ctx fe 1))))
    | _ ->
      emit
        (Sassign (Eident s, int_expr ~allow_undef:(Rng.pct ctx.rng 40) ctx fe 2))
  done;
  let body =
    decls
    @ [ Sdecl (Tint, s, Some (Ebinop (Badd, Eident "n", lit ctx))) ]
    @ List.rev !stmts
    @ [ Sreturn (Some (Ebinop (Badd, Eident s, int_expr ~allow_undef:true ctx fe 1))) ]
  in
  push ctx
    (Ifunc { fret = Tint; fdname = name; fparams = [ (Tint, "n") ]; fbody = body })

(* Deep call chain with mutual recursion: a pair of functions that call
   each other down a literal depth, threading an address-taken local
   through an [int*] out-parameter at every level. The pair is one
   callgraph SCC: whether the threaded cell is still ⊥ at the read
   depends on which leg of the descent (if any) wrote it — both the
   Ecall and Eret edges have to be resolved right. *)
let shape_mutual_chain ctx name =
  let fa = fresh ctx "fzma" and fb = fresh ctx "fzmb" in
  let feab = { def_ints = [ "d" ]; undef_ints = [] } in
  (* fa: base case writes the caller's cell; otherwise it threads a fresh
     address-taken local down through fb and reads it back (the read is
     of ⊥ whenever fb's descent never stored). *)
  let ta = fresh ctx "t" in
  let body_a =
    [
      Sif
        ( Ebinop (Ble, Eident "d", Eint 0),
          [
            Sassign (Ederef (Eident "out"), int_expr ctx feab 1);
            Sreturn (Some (lit ctx));
          ],
          [] );
      Sdecl (Tint, ta, None);
      Sexpr
        (Ecall (fb, [ Eaddr (Eident ta); Ebinop (Bsub, Eident "d", Eint 1) ]));
      Sassign
        ( Ederef (Eident "out"),
          Ebinop (Badd, Eident ta, int_expr ctx feab 1) );
      Sreturn (Some (Ebinop (Badd, Eident ta, Ederef (Eident "out"))));
    ]
  in
  (* fb: the base case deliberately leaves [*out] untouched, so ⊥ can
     flow back up the whole chain; deeper levels may write it only on
     one depth parity. *)
  let tb = fresh ctx "u" in
  let write_back =
    Sassign (Ederef (Eident "out"), Ebinop (Badd, Eident tb, lit ctx))
  in
  let body_b =
    [
      Sif
        ( Ebinop (Ble, Eident "d", Eint 0),
          [ Sreturn (Some (int_expr ctx feab 1)) ],
          [] );
      Sdecl (Tint, tb, None);
      Sexpr
        (Ecall (fa, [ Eaddr (Eident tb); Ebinop (Bsub, Eident "d", Eint 1) ]));
      (if Rng.bool ctx.rng then
         Sif
           ( Ebinop (Bgt, Ebinop (Brem, Eident "d", Eint 2), Eint 0),
             [ write_back ],
             [] )
       else write_back);
      Sreturn (Some (Eident tb));
    ]
  in
  (* fa calls fb and is pushed first: a forward reference the lowerer's
     signature prepass resolves, like any mutual recursion would need *)
  push ctx
    (Ifunc
       {
         fret = Tint;
         fdname = fa;
         fparams = [ (Tptr Tint, "out"); (Tint, "d") ];
         fbody = body_a;
       });
  push ctx
    (Ifunc
       {
         fret = Tint;
         fdname = fb;
         fparams = [ (Tptr Tint, "out"); (Tint, "d") ];
         fbody = body_b;
       });
  (* the entry helper seeds the descent from its own address-taken local;
     whether that cell comes back defined depends on the literal depth *)
  let fe = { def_ints = [ "n" ]; undef_ints = [] } in
  let cell = fresh ctx "m" and s = fresh ctx "s" in
  let depth = 2 + Rng.int ctx.rng 5 in
  let body =
    [
      Sdecl (Tint, cell, None);
      Sdecl
        (Tint, s, Some (Ecall (fa, [ Eaddr (Eident cell); Eint depth ])));
      Sreturn
        (Some
           (Ebinop
              ( Badd,
                Eident s,
                Ebinop (Badd, Eident cell, int_expr ctx fe 1) )));
    ]
  in
  push ctx
    (Ifunc { fret = Tint; fdname = name; fparams = [ (Tint, "n") ]; fbody = body })

(* ---- whole programs ---- *)

let shapes =
  [
    (3, shape_loop_carry);
    (3, shape_addr_alias);
    (2, shape_partial_struct);
    (2, shape_fp_dispatch);
    (3, shape_array_walk);
    (3, shape_scalar_mix);
    (2, shape_mutual_chain);
  ]

let pick_shape ctx =
  let total = List.fold_left (fun a (w, _) -> a + w) 0 shapes in
  let n = Rng.int ctx.rng total in
  let rec go acc = function
    | [ (_, s) ] -> s
    | (w, s) :: rest -> if n < acc + w then s else go (acc + w) rest
    | [] -> assert false
  in
  go 0 shapes

let program ?(size = 3) ~(seed : int) () : program =
  let ctx =
    {
      rng = Rng.create (seed * 0x9E3779B9 + 0x51ED);
      uid = 0;
      helpers = [];
      apply_fn = None;
      structs = [];
      globals = [];
      garrays = [];
      items_rev = [];
    }
  in
  (* a few initialized globals and one global array now and then *)
  for _ = 1 to Rng.int ctx.rng 3 do
    let g = fresh ctx "g" in
    let init = Rng.int ctx.rng 40 - (if Rng.pct ctx.rng 25 then 37 else 0) in
    push ctx (Iglobal { gdty = Tint; gdname = g; gdinit = Some init });
    ctx.globals <- g :: ctx.globals
  done;
  if Rng.pct ctx.rng 50 then begin
    let g = fresh ctx "ga" in
    let size = Rng.choose ctx.rng [ 8; 16 ] in
    push ctx (Iglobal { gdty = Tarr (size, Tint); gdname = g; gdinit = None });
    ctx.garrays <- (g, size) :: ctx.garrays
  end;
  let nfuncs = max 1 size + Rng.int ctx.rng 2 in
  for _ = 1 to nfuncs do
    let name = fresh ctx "fz" in
    (pick_shape ctx) ctx name;
    ctx.helpers <- name :: ctx.helpers
  done;
  (* main: call every top-level helper with literal arguments, print the
     accumulated result (and sometimes an individual call) *)
  let fe = { def_ints = []; undef_ints = [] } in
  let s = fresh ctx "acc" in
  fe.def_ints <- [ s ];
  let calls =
    List.rev ctx.helpers
    |> List.map (fun h ->
           Sassign
             ( Eident s,
               Ebinop (Badd, Eident s, Ecall (h, [ Eint (1 + Rng.int ctx.rng 9) ]))
             ))
  in
  let extra_print =
    if Rng.pct ctx.rng 40 && ctx.helpers <> [] then
      [
        Sexpr
          (Ecall
             ( "print",
               [ Ecall (Rng.choose ctx.rng ctx.helpers, [ Eint (Rng.int ctx.rng 5) ]) ]
             ));
      ]
    else []
  in
  let main_body =
    [ Sdecl (Tint, s, Some (Eint 0)) ]
    @ calls
    @ [ Sexpr (Ecall ("print", [ Eident s ])) ]
    @ extra_print
    @ [ Sreturn (Some (Eint 0)) ]
  in
  push ctx (Ifunc { fret = Tint; fdname = "main"; fparams = []; fbody = main_body });
  List.rev ctx.items_rev

let source ?size ~seed () : string =
  Tinyc.Pretty.program_to_string (program ?size ~seed ())

(* Per-index derived seeds for a fuzzing campaign: mixing the root seed
   and the index keeps every program independent of generation order, so
   `--jobs 1` and `--jobs 4` generate identical campaigns. *)
let campaign_seed ~(seed : int) (index : int) : int =
  (seed * 0x100003) lxor (index * 0x9E3779B9) lxor (index lsl 17)
