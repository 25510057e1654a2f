(* One end-to-end experiment: compile a TinyC program at an optimization
   level, analyze it, instrument it under every variant, execute natively
   and under each plan, and report slowdowns plus static instrumentation
   statistics. This is the unit both the benchmark harness and the examples
   are built from. *)

type variant_result = {
  variant : Config.variant;
  static_stats : Instr.Item.stats;
  slowdown_pct : float;
  dynamic_shadow_ops : int;
  detections : Ir.Types.label list;     (* E(l) that fired *)
  compressed_away : int;                (* items removed by folding + DCE *)
}

type t = {
  name : string;
  level : Optim.Pipeline.level;
  analysis : Pipeline.analysis;
  table1 : Analysis_stats.t;
  native_counters : Runtime.Counters.t;
  native_outputs : int list;
  gt_uses : Ir.Types.label list;        (* ground-truth undefined uses *)
  results : variant_result list;
}

exception Unsound of string

(** Is the ground-truth undefined use at [lbl] covered by [detections]?
    Covered means: detected at [lbl] itself, or dominated (same function,
    executes-before) by a statement whose check fired — the situation Opt II
    creates deliberately: the undefined value was already reported at the
    dominating check, and its rippling effects are suppressed (§3.5.2). *)
let covered (prog : Ir.Prog.t) (detections : (Ir.Types.label, unit) Hashtbl.t)
    (lbl : Ir.Types.label) : bool =
  Hashtbl.mem detections lbl
  || Ir.Prog.fold_funcs
       (fun acc f ->
         acc
         ||
         let pos = Analysis.Dominance.label_positions f in
         if not (Hashtbl.mem pos lbl) then false
         else begin
           let dom = Analysis.Dominance.compute f in
           Hashtbl.fold
             (fun d () acc ->
               acc
               || (Hashtbl.mem pos d
                  && Analysis.Dominance.label_dominates dom pos d lbl))
             detections false
         end)
       false prog

(** Run every variant on [src]. [check_soundness] verifies that each plan
    detects every ground-truth undefined use at a critical operation — the
    paper's soundness guarantee ("no uses of undefined values will be
    missed"). The check is skipped for O1/O2, where LLVM-style optimization
    legitimately hides uses (§4.3/§4.6: deleted dead loads take their checks
    with them, and folded branches change the undef-use set). *)
let run ?(name = "program") ?(level = Optim.Pipeline.O0_IM)
    ?(knobs = Config.default_knobs) ?(variants = Config.all_variants)
    ?(check_soundness = true) ?limits ?(engine = Vm.Engine.Interp)
    (src : string) : t =
  Obs.Trace.with_span ~cat:"experiment"
    ~args:[ ("level", Obs.Trace.Str (Optim.Pipeline.level_to_string level)) ]
    ("experiment." ^ name)
  @@ fun () ->
  let prog, front_events = Pipeline.front_guarded ~level ~knobs src in
  let analysis = Pipeline.analyze ~knobs prog in
  analysis.events := front_events @ !(analysis.events);
  let table1 = Analysis_stats.compute ~src analysis in
  let native = Vm.Engine.run_native ?limits engine prog in
  let compress = level <> Optim.Pipeline.O0_IM in
  let results =
    List.map
      (fun v ->
        let plan, _ = Pipeline.plan_for analysis v in
        (* Step (3) of the paper's O1/O2 methodology: rerun the optimizer
           over the inserted instrumentation (shadow constant folding +
           shadow dead-code elimination). *)
        let compressed_away =
          if compress then begin
            let folded, dce =
              Obs.Trace.with_span ~cat:"instr"
                ~end_args:(fun (folded, dce) ->
                  [ ("folded", Obs.Trace.Int folded); ("dce", Obs.Trace.Int dce) ])
                "instr.compress"
              @@ fun () ->
              let folded = Instr.Compress.fold_constants plan in
              (folded, Instr.Compress.run plan)
            in
            folded + dce
          end
          else 0
        in
        let outcome = Vm.Engine.run_plan ?limits engine prog plan in
        (* The instrumented run must preserve program behaviour... *)
        if outcome.outputs <> native.outputs then
          raise
            (Unsound
               (Printf.sprintf "%s/%s: instrumented run diverged from native"
                  name (Config.variant_name v)));
        (* ...and must not miss any ground-truth undefined use. *)
        if check_soundness && level = Optim.Pipeline.O0_IM then
          Hashtbl.iter
            (fun lbl () ->
              if not (covered prog outcome.detections lbl) then
                raise
                  (Unsound
                     (Printf.sprintf
                        "%s/%s: ground-truth undefined use at l%d not detected"
                        name (Config.variant_name v) lbl)))
            outcome.gt_uses;
        {
          variant = v;
          static_stats = Instr.Item.stats_of plan;
          slowdown_pct =
            Runtime.Costmodel.slowdown_pct ~native:native.counters
              ~instrumented:outcome.counters ();
          dynamic_shadow_ops = Runtime.Counters.shadow_ops outcome.counters;
          detections = Hashtbl.fold (fun l () acc -> l :: acc) outcome.detections [];
          compressed_away;
        })
      variants
  in
  {
    name;
    level;
    analysis;
    table1;
    native_counters = native.counters;
    native_outputs = native.outputs;
    gt_uses = Hashtbl.fold (fun l () acc -> l :: acc) native.gt_uses [];
    results;
  }

let result_for (t : t) (v : Config.variant) : variant_result =
  List.find (fun r -> r.variant = v) t.results

(* Bounded parallel map over a work-stealing {!Pool} of OCaml 5 domains.
   One task per item; each slot of [results] is written by exactly one
   worker, so the only synchronization needed is the pool shutdown join.
   Results keep input order.

   Failure handling: fail-fast — the first recorded failure makes every
   not-yet-started task a no-op (in-flight items still finish; the pool
   never kills a domain mid-write). After the join, the failure at the
   lowest input index that actually ran is re-raised *with the worker's
   backtrace* ([Printexc.raise_with_backtrace]; a bare [raise] here would
   replace the worker's trace with the caller's). Which trailing items
   were skipped depends on scheduling, but the success outcome and the
   raised exception's provenance do not. *)
let parallel_map ?(jobs = 1) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  let input = Array.of_list xs in
  let n = Array.length input in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let results : ('b, exn * Printexc.raw_backtrace) result option array =
      Array.make n None
    in
    let failed = Atomic.make false in
    let pool = Pool.create ~name:"experiment" ~jobs:(min jobs n) () in
    Array.iteri
      (fun i x ->
        ignore
          (Pool.submit pool (fun () ->
               if not (Atomic.get failed) then begin
                 match f x with
                 | r -> results.(i) <- Some (Ok r)
                 | exception e ->
                   let bt = Printexc.get_raw_backtrace () in
                   results.(i) <- Some (Error (e, bt));
                   Atomic.set failed true
               end)))
      input;
    Pool.shutdown pool;
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok _) | None -> ())
      results;
    Array.to_list results
    |> List.map (function
         | Some (Ok r) -> r
         | Some (Error _) | None -> assert false)
  end
