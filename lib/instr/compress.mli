(** Re-optimization of inserted instrumentation — step (3) of the paper's
    O1/O2 methodology (§4.6). *)

(** Shadow registers an action reads, one entry per occurrence. *)
val shadow_reads : Item.action -> Ir.Types.var list

(** Optimistic constant propagation over the shadow program (what LLVM's
    instcombine/SCCP does to MSan's inserted code): shadows rooted only in
    constants fold to "defined", their propagation chains collapse, and
    checks that provably never fire disappear. Semantics-preserving because
    shadow state defaults to true. The greatest fixpoint is found by a
    worklist that re-tests only the readers of a demoted shadow. Returns
    the number of actions removed. *)
val fold_constants : Item.plan -> int

(** Shadow dead-code elimination: [Set_var]s whose register is never read
    are removed, transitively, by a use-count worklist linear in the plan.
    Registers kept alive only by a dead cycle or by their own definition (a
    self-reading shadow phi) stay. Every other action is kept. Returns the
    number of items removed, counting duplicates. *)
val run : Item.plan -> int
