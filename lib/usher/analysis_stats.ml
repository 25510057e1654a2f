(* The per-benchmark statistics of Table 1. *)

type t = {
  kloc : float;                  (* TinyC source size *)
  analysis_time_s : float;
  analysis_mem_mb : float;
  var_tl : int;                  (* top-level variables (virtual registers) *)
  var_at_stack : int;            (* address-taken objects by region *)
  var_at_heap : int;
  var_at_global : int;
  pct_uninit_alloc : float;      (* %F *)
  semi_per_heap_site : float;    (* S: semi-strong cuts per non-array heap site *)
  pct_strong : float;            (* %SU *)
  pct_weak_singleton : float;    (* %WU *)
  vfg_nodes : int;
  pct_reaching : float;          (* %B: nodes needing tracking *)
  opt1_simplified : int;         (* S (second): closures simplified *)
  opt2_redirected : int;         (* R *)
  pa_solve_iterations : int;     (* Andersen worklist pops *)
  pa_sccs_collapsed : int;       (* pointer-equivalence cycles unified *)
  pa_edges_deduped : int;        (* duplicate copy edges skipped *)
  resolve_states : int;          (* (node, context) states explored *)
  resolve_condensed_sccs : int;  (* nontrivial VFG SCCs the search collapsed *)
  condensation_ratio : float;    (* VFG components / nodes; 1.0 = no cycles *)
  degraded_functions : string list;   (* distrusted: MSan instrumentation *)
  degradation_events : string list;   (* the ladder's audit trail *)
  verify_checkers : (string * float * int) list;
      (* (checker, wall_s, violations) when --verify ran; [] otherwise *)
}

let kloc_of_source (src : string) : float =
  let lines = String.split_on_char '\n' src in
  let code =
    List.filter
      (fun l ->
        let l = String.trim l in
        String.length l > 0 && not (String.length l >= 2 && String.sub l 0 2 = "//"))
      lines
  in
  float_of_int (List.length code) /. 1000.0

let compute ~(src : string) (a : Pipeline.analysis) : t =
  let objects = a.pa.objects in
  let stack = ref 0 and heap = ref 0 and glob = ref 0 and uninit = ref 0 in
  let nonarray_heap_sites = Hashtbl.create 16 in
  for oid = 0 to Analysis.Objects.nobjs objects - 1 do
    let o = Analysis.Objects.obj objects oid in
    (match o.okind with
    | Analysis.Objects.Obj_stack -> incr stack
    | Analysis.Objects.Obj_heap ->
      incr heap;
      if not o.oarray then Hashtbl.replace nonarray_heap_sites o.osite ()
    | Analysis.Objects.Obj_global -> incr glob
    | Analysis.Objects.Obj_func _ -> ());
    match o.okind with
    | Analysis.Objects.Obj_func _ -> ()
    | _ -> if not o.oinit then incr uninit
  done;
  let n_at = !stack + !heap + !glob in
  (* Top-level variables: SSA definitions and parameters in the optimized
     program. *)
  let var_tl = ref 0 in
  Ir.Prog.iter_funcs
    (fun f -> var_tl := !var_tl + List.length (Ir.Func.defined_vars f))
    a.prog;
  let ss = Vfg.Build.store_stats a.vfg in
  (* Statistics must survive a degraded analysis: if the guided traversal
     itself faults on the degraded artifacts, report full coverage. *)
  let try_guided ~opt1 =
    try Some (Instr.Guided.build ~options:{ Instr.Guided.opt1 } a.vfg a.gamma)
    with _ -> None
  in
  let guided = try_guided ~opt1:false in
  let opt1 = try_guided ~opt1:true in
  let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b in
  {
    kloc = kloc_of_source src;
    analysis_time_s = a.analysis_time_s;
    analysis_mem_mb = a.analysis_mem_mb;
    var_tl = !var_tl;
    var_at_stack = !stack;
    var_at_heap = !heap;
    var_at_global = !glob;
    pct_uninit_alloc = pct !uninit n_at;
    semi_per_heap_site =
      (let sites = Hashtbl.length nonarray_heap_sites in
       if sites = 0 then 0.0
       else float_of_int a.vfg.semi_strong_cuts /. float_of_int sites);
    pct_strong = pct ss.strong ss.total_stores;
    pct_weak_singleton = pct ss.weak_singleton ss.total_stores;
    vfg_nodes = Vfg.Graph.nnodes a.vfg.graph;
    pct_reaching =
      (match guided with
      | Some g -> pct g.needed_nodes (Vfg.Graph.nnodes a.vfg.graph)
      | None -> 100.0);
    opt1_simplified =
      (match opt1 with Some o -> o.opt1_simplified | None -> 0);
    opt2_redirected = a.opt2.redirected;
    pa_solve_iterations = a.pa.solve_iterations;
    pa_sccs_collapsed = a.pa.sccs_collapsed;
    pa_edges_deduped = a.pa.edges_deduped;
    resolve_states = a.gamma.states_explored;
    resolve_condensed_sccs = a.gamma.condensed_sccs;
    condensation_ratio =
      (let n = Vfg.Graph.nnodes a.vfg.graph in
       if n = 0 then 1.0
       else
         (* cached after resolution, so this is a lookup, not a recompute *)
         float_of_int (Vfg.Graph.condensation a.vfg.graph).ncomps
         /. float_of_int n);
    degraded_functions = Pipeline.distrusted_functions a;
    degradation_events = List.map Degrade.to_string !(a.events);
    verify_checkers =
      List.map
        (fun (r : Verify.Report.t) ->
          (r.checker, r.wall_s, Verify.Report.nviolations r))
        a.verify_reports;
  }
