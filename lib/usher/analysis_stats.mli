(** The per-benchmark statistics of the paper's Table 1. *)

type t = {
  kloc : float;                  (** TinyC source size *)
  analysis_time_s : float;
  analysis_mem_mb : float;
  var_tl : int;                  (** top-level variables (virtual registers) *)
  var_at_stack : int;            (** address-taken objects by region *)
  var_at_heap : int;
  var_at_global : int;
  pct_uninit_alloc : float;      (** %F *)
  semi_per_heap_site : float;    (** S: semi-strong cuts per non-array heap site *)
  pct_strong : float;            (** %SU *)
  pct_weak_singleton : float;    (** %WU *)
  vfg_nodes : int;
  pct_reaching : float;          (** %B: nodes needing tracking *)
  opt1_simplified : int;         (** closures simplified by Opt I *)
  opt2_redirected : int;         (** R: nodes redirected by Opt II *)
  pa_solve_iterations : int;     (** Andersen worklist pops *)
  pa_sccs_collapsed : int;       (** pointer-equivalence cycles unified *)
  pa_edges_deduped : int;        (** duplicate copy edges skipped *)
  resolve_states : int;          (** (node, context) states explored *)
  resolve_condensed_sccs : int;  (** nontrivial VFG SCCs the search collapsed *)
  condensation_ratio : float;    (** VFG components / nodes; 1.0 = no cycles *)
  degraded_functions : string list;   (** distrusted: MSan instrumentation *)
  degradation_events : string list;   (** the ladder's audit trail *)
  verify_checkers : (string * float * int) list;
      (** (checker, wall seconds, violations) per certificate checker, in
          pipeline order, when the analysis ran with [verify]; [[]]
          otherwise *)
}

val kloc_of_source : string -> float
val compute : src:string -> Pipeline.analysis -> t
