(* The evaluation harness: regenerates every table and figure of the paper's
   evaluation (§4) on the 15 SPEC CPU2000 C analogs.

     dune exec bench/main.exe              -- everything (default scale 30)
     dune exec bench/main.exe -- table1    -- Table 1 only
     dune exec bench/main.exe -- fig10     -- Figure 10 only
     dune exec bench/main.exe -- fig11     -- Figure 11 only
     dune exec bench/main.exe -- sec46     -- the §4.6 O1/O2 study
     dune exec bench/main.exe -- detect    -- §4.5 detection result
     dune exec bench/main.exe -- ablation  -- DESIGN.md §5 ablations
     dune exec bench/main.exe -- micro     -- Bechamel microbenchmarks of the
                                              analysis phases feeding each table
     dune exec bench/main.exe -- serveload -- load-generate against an
                                              in-process `usherc serve` daemon
     dune exec bench/main.exe -- fuzz      -- a short deterministic fuzzing
                                              campaign: generator + oracle
                                              throughput, distillation yield
     dune exec bench/main.exe -- vm        -- the bytecode VM against the
                                              reference interpreter: steps/s
                                              for both engines and the
                                              per-variant dynamic overhead,
                                              differentially checked
     dune exec bench/main.exe -- scale=60 fig10   -- override the input scale
   dune exec bench/main.exe -- --jobs 4 table1  -- run experiments on 4 domains
                                                   (also: jobs=4, or BENCH_JOBS)
   dune exec bench/main.exe -- --trace t.json table1 -- also record a Chrome
                                                   trace_event timeline
                                                   (also: trace=t.json)
   dune exec bench/main.exe -- --verify table1   -- run the lib/verify
                                                   certificate checkers over
                                                   every analysis (also:
                                                   verify=true)

   Every invocation also writes BENCH_usher.json (schema [schema_version]
   below — single source of truth, mirrored by the CI validator):
   per-phase wall times, peak heap, deterministic work counters, the
   process-wide Obs.Metrics snapshot, per-variant instrumentation
   statistics, (under --verify) per-checker certificate times and
   violation counts, (under serveload) server health — per-request
   latency percentiles plus shed/retry/quarantine/cache counts from the
   load-generator run — (under fuzz) fuzzing-campaign throughput:
   programs/s through the generator, oracle audits/s, and the distilled
   corpus yield — and (under vm) engine comparison: steps/s for the
   interpreter and the bytecode VM on the scale-10 gzip micro, the
   speedup ratio, and the per-variant dynamic overhead at scale 50 — for
   whatever artifacts ran; see EXPERIMENTS.md.
   [--baseline FILE] fails the run if solve_iterations or
   states_explored regressed >20%% against the checked-in counters;
   [--update-baseline FILE] rewrites them. [--trace FILE] additionally
   records every pipeline phase / function span, degradation instant and
   GC sample into FILE (chrome://tracing / ui.perfetto.dev format);
   tracing never changes tables, figures, or counters.

   Expected *shapes* (not absolute numbers) are printed next to each
   artifact; see EXPERIMENTS.md for the comparison against the paper. *)

module Cfg = Usher.Config
module Exp = Usher.Experiment

(* The single source of truth for the BENCH_usher.json schema tag; the CI
   validator greps the emitted file for exactly this string. Bump it
   whenever a field is added, removed, or changes meaning. *)
let schema_version = "usher-bench/8"

let scale = ref 30

let jobs =
  ref
    (match Sys.getenv_opt "BENCH_JOBS" with
    | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)
    | None -> 1)

let baseline_file = ref None
let update_baseline = ref None
let trace_file : string option ref = ref None
let verify = ref false

let bench_knobs () = { Cfg.default_knobs with verify = !verify }

let profiles = Workloads.Spec2000.all

(* The 15 analogs are independent: fan them out over a bounded domain pool.
   [parallel_map] keeps results in input order and fails fast on the first
   failure, so output and exit status match the sequential run.

   Worker domains must never write to stdout — concurrent writes from
   domains interleave mid-line and garble the Table 1 / Figure 10 text.
   Any per-program report a worker produces (degradation / quarantine
   events) is rendered into a per-item buffer inside the worker and
   printed here, in input order, after the join. *)
let run_level level =
  let ran =
    Exp.parallel_map ~jobs:!jobs
      (fun (p : Workloads.Profile.t) ->
        let src = Workloads.Spec2000.source ~scale:!scale p in
        let e = Exp.run ~name:p.pname ~level ~knobs:(bench_knobs ()) src in
        let report = Buffer.create 64 in
        List.iter
          (fun ev ->
            Buffer.add_string report "  ";
            Buffer.add_string report (Usher.Degrade.to_string ev);
            Buffer.add_char report '\n')
          !(e.analysis.events);
        (p, src, e, Buffer.contents report))
      profiles
  in
  List.iter
    (fun ((p : Workloads.Profile.t), _, _, report) ->
      if report <> "" then
        Printf.printf "%s (%s) degradation report:\n%s" p.pname
          (Optim.Pipeline.level_to_string level)
          report)
    ran;
  List.map (fun (p, src, e, _) -> (p, src, e)) ran

let o0 = lazy (run_level Optim.Pipeline.O0_IM)
let o1 = lazy (run_level Optim.Pipeline.O1)
let o2 = lazy (run_level Optim.Pipeline.O2)

let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let sd (e : Exp.t) v = (Exp.result_for e v).slowdown_pct

(* ------------------------------------------------------------------ *)

let table1 () =
  Printf.printf "\n== Table 1: benchmark statistics under O0+IM ==\n";
  Printf.printf
    "%-13s %6s %6s %6s | %7s %5s %5s %5s | %4s %5s %5s %5s | %7s %4s %6s %6s\n"
    "benchmark" "KLOC" "time_s" "memMB" "VarTL" "stk" "heap" "glob" "%F" "S"
    "%SU" "%WU" "VFGnode" "%B" "S_opt1" "R_opt2";
  List.iter
    (fun ((p : Workloads.Profile.t), _, (e : Exp.t)) ->
      let t = e.table1 in
      Printf.printf
        "%-13s %6.1f %6.2f %6.1f | %7d %5d %5d %5d | %4.0f %5.1f %5.0f %5.0f | %7d %4.0f %6d %6d\n"
        p.pname t.kloc t.analysis_time_s t.analysis_mem_mb t.var_tl
        t.var_at_stack t.var_at_heap t.var_at_global t.pct_uninit_alloc
        t.semi_per_heap_site t.pct_strong t.pct_weak_singleton t.vfg_nodes
        t.pct_reaching t.opt1_simplified t.opt2_redirected)
    (Lazy.force o0);
  let col f = avg (List.map (fun (_, _, e) -> f e.Exp.table1) (Lazy.force o0)) in
  Printf.printf
    "%-13s %6s %6.2f %6.1f | %7.0f %5.0f %5.0f %5.0f | %4.0f %5.1f %5.0f %5.0f | %7.0f %4.0f %6.0f %6.0f\n"
    "average" ""
    (col (fun t -> t.analysis_time_s))
    (col (fun t -> t.analysis_mem_mb))
    (col (fun t -> float_of_int t.var_tl))
    (col (fun t -> float_of_int t.var_at_stack))
    (col (fun t -> float_of_int t.var_at_heap))
    (col (fun t -> float_of_int t.var_at_global))
    (col (fun t -> t.pct_uninit_alloc))
    (col (fun t -> t.semi_per_heap_site))
    (col (fun t -> t.pct_strong))
    (col (fun t -> t.pct_weak_singleton))
    (col (fun t -> float_of_int t.vfg_nodes))
    (col (fun t -> t.pct_reaching))
    (col (fun t -> float_of_int t.opt1_simplified))
    (col (fun t -> float_of_int t.opt2_redirected));
  Printf.printf
    "(paper averages: %%F 34, S 3.2, %%SU 36, %%WU 46, %%B 38; analysis <10s, <600MB)\n"

let fig10 () =
  Printf.printf "\n== Figure 10: execution-time slowdowns vs native (%%) ==\n";
  Printf.printf "%-13s %8s %8s %9s %8s %8s\n" "benchmark" "MSan" "Usher_TL"
    "Ushr_TLAT" "UshrOptI" "Usher";
  List.iter
    (fun ((p : Workloads.Profile.t), _, e) ->
      Printf.printf "%-13s %8.0f %8.0f %9.0f %8.0f %8.0f\n" p.pname
        (sd e Cfg.Msan) (sd e Cfg.Usher_tl) (sd e Cfg.Usher_tl_at)
        (sd e Cfg.Usher_opt1) (sd e Cfg.Usher_full))
    (Lazy.force o0);
  let a v = avg (List.map (fun (_, _, e) -> sd e v) (Lazy.force o0)) in
  Printf.printf "%-13s %8.0f %8.0f %9.0f %8.0f %8.0f\n" "average" (a Cfg.Msan)
    (a Cfg.Usher_tl) (a Cfg.Usher_tl_at) (a Cfg.Usher_opt1) (a Cfg.Usher_full);
  Printf.printf "(paper averages:   302      272       193      181      123)\n"

let fig11 () =
  Printf.printf
    "\n== Figure 11: static shadow propagations / checks (%% of MSan) ==\n";
  Printf.printf "%-13s | %11s | %11s | %11s | %11s\n" "benchmark" "TL p/c"
    "TL+AT p/c" "OptI p/c" "Usher p/c";
  let accum = Array.make 8 0.0 in
  List.iter
    (fun ((p : Workloads.Profile.t), _, (e : Exp.t)) ->
      let m = (Exp.result_for e Cfg.Msan).static_stats in
      let pc v =
        let s = (Exp.result_for e v).static_stats in
        ( 100.0 *. float_of_int s.propagations /. float_of_int (max 1 m.propagations),
          100.0 *. float_of_int s.checks /. float_of_int (max 1 m.checks) )
      in
      let tlp, tlc = pc Cfg.Usher_tl in
      let atp, atc = pc Cfg.Usher_tl_at in
      let o1p, o1c = pc Cfg.Usher_opt1 in
      let up, uc = pc Cfg.Usher_full in
      List.iteri (fun i v -> accum.(i) <- accum.(i) +. v)
        [ tlp; tlc; atp; atc; o1p; o1c; up; uc ];
      Printf.printf "%-13s | %5.0f %5.0f | %5.0f %5.0f | %5.0f %5.0f | %5.0f %5.0f\n"
        p.pname tlp tlc atp atc o1p o1c up uc)
    (Lazy.force o0);
  let n = float_of_int (List.length profiles) in
  Printf.printf "%-13s | %5.0f %5.0f | %5.0f %5.0f | %5.0f %5.0f | %5.0f %5.0f\n"
    "average" (accum.(0) /. n) (accum.(1) /. n) (accum.(2) /. n) (accum.(3) /. n)
    (accum.(4) /. n) (accum.(5) /. n) (accum.(6) /. n) (accum.(7) /. n);
  Printf.printf
    "(paper averages |    57    72 |    32    44 |    22    44 |    16    23)\n"

let sec46 () =
  Printf.printf "\n== Section 4.6: effect of compiler optimization levels ==\n";
  Printf.printf "%-13s | %7s %6s | %7s %6s | %7s %6s\n" "benchmark" "O0 MSan"
    "Usher" "O1 MSan" "Usher" "O2 MSan" "Usher";
  let rows =
    List.map2
      (fun (p, _, e0) ((_, _, e1), (_, _, e2)) -> (p, e0, e1, e2))
      (Lazy.force o0)
      (List.combine (Lazy.force o1) (Lazy.force o2))
  in
  List.iter
    (fun ((p : Workloads.Profile.t), e0, e1, e2) ->
      Printf.printf "%-13s | %7.0f %6.0f | %7.0f %6.0f | %7.0f %6.0f\n" p.pname
        (sd e0 Cfg.Msan) (sd e0 Cfg.Usher_full) (sd e1 Cfg.Msan)
        (sd e1 Cfg.Usher_full) (sd e2 Cfg.Msan) (sd e2 Cfg.Usher_full))
    rows;
  let f0 (a, _, _) = a and f1 (_, b, _) = b and f2 (_, _, c) = c in
  let a sel v = avg (List.map (fun (_, e0, e1, e2) -> sd (sel (e0, e1, e2)) v) rows) in
  let m0 = a f0 Cfg.Msan and u0 = a f0 Cfg.Usher_full in
  let m1 = a f1 Cfg.Msan and u1 = a f1 Cfg.Usher_full in
  let m2 = a f2 Cfg.Msan and u2 = a f2 Cfg.Usher_full in
  Printf.printf "%-13s | %7.0f %6.0f | %7.0f %6.0f | %7.0f %6.0f\n" "average"
    m0 u0 m1 u1 m2 u2;
  Printf.printf
    "reduction of MSan's cost by Usher: %.1f%% (O0+IM), %.1f%% (O1), %.1f%% (O2)\n"
    (100.0 *. (m0 -. u0) /. m0)
    (100.0 *. (m1 -. u1) /. m1)
    (100.0 *. (m2 -. u2) /. m2);
  Printf.printf
    "(paper: MSan 302/231/212, Usher 123/140/132; reductions 59.3/39.4/37.7)\n"

let detect () =
  Printf.printf "\n== Section 4.5: detection of the 197.parser undefined use ==\n";
  List.iter
    (fun ((p : Workloads.Profile.t), _, (e : Exp.t)) ->
      if p.bug then begin
        Printf.printf "%s: ground-truth undefined uses at run time: %d\n" p.pname
          (List.length e.gt_uses);
        List.iter
          (fun (r : Exp.variant_result) ->
            Printf.printf "  %-12s reports %d use(s) of undefined values\n"
              (Cfg.variant_name r.variant)
              (List.length r.detections))
          e.results
      end)
    (Lazy.force o0);
  Printf.printf "(paper: one use detected in ppmatch() of 197.parser by all tools)\n"

let ablation () =
  Printf.printf
    "\n== Ablations (DESIGN.md section 5): Usher surviving checks, %% of MSan ==\n";
  let subjects = [ "164.gzip"; "188.ammp"; "197.parser" ] in
  Printf.printf "%-13s %9s | %10s %9s %9s %9s | %10s\n" "benchmark" "default"
    "no-semiSU" "ctx-insen" "field-ins" "no-clone" "small-arr8";
  List.iter
    (fun name ->
      let p = Workloads.Spec2000.find name in
      let src = Workloads.Spec2000.source ~scale:!scale p in
      let usher knobs =
        let e =
          Exp.run ~name ~knobs ~variants:[ Cfg.Msan; Cfg.Usher_full ]
            ~check_soundness:false src
        in
        (* checks are structure-independent: knobs that merge or split
           abstract objects change raw item counts, but a surviving check is
           a surviving check *)
        let m = (Exp.result_for e Cfg.Msan).static_stats.checks in
        let u = (Exp.result_for e Cfg.Usher_full).static_stats.checks in
        100.0 *. float_of_int u /. float_of_int (max 1 m)
      in
      let d = bench_knobs () in
      Printf.printf "%-13s %9.1f | %10.1f %9.1f %9.1f %9.1f | %10.1f\n" name
        (usher d)
        (usher { d with semi_strong = false })
        (usher { d with context_sensitive = false })
        (usher { d with field_sensitive = false })
        (usher { d with heap_cloning = false })
        (* the small-array extension (the paper's future work) should only
           ever *improve* precision *)
        (usher { d with small_array_fields = 8 }))
    subjects;
  Printf.printf
    "(disabling semi-strong updates or context sensitivity costs precision;\n\
    \ field-insensitivity and no-cloning merge abstract objects, so their raw\n\
    \ ratios can shift by noise at this scale; the small-array extension\n\
    \ never increases the ratio)\n"

(* ------------------------------------------------------------------ *)

(* One Bechamel Test.make per evaluation artifact: each microbenchmark
   measures the analysis phase that produces the corresponding table or
   figure, on the 164.gzip analog. The two [-naive] lines rerun pointer
   analysis without cycle elimination and resolution without SCC
   condensation, so one run shows the optimized/naive ratio on the same
   machine under the same load. *)
let micro_ns : (string * float) list ref = ref []

let micro () =
  Printf.printf "\n== Bechamel microbenchmarks of the analysis phases ==\n";
  let p = Workloads.Spec2000.find "164.gzip" in
  let src = Workloads.Spec2000.source ~scale:10 p in
  let prepared = Usher.Pipeline.front src in
  let pa = Analysis.Andersen.run prepared in
  let cg = Analysis.Callgraph.build prepared pa in
  let mr = Analysis.Modref.compute prepared pa cg in
  let mssa = Memssa.build prepared pa cg mr in
  let vfg = Vfg.Build.build prepared pa cg mr mssa in
  let gamma = Vfg.Resolve.resolve vfg.graph in
  let open Bechamel in
  let test =
    Test.make_grouped ~name:"usher"
      [
        Test.make ~name:"table1/front-end"
          (Staged.stage (fun () -> Usher.Pipeline.front src));
        Test.make ~name:"table1/pointer-analysis"
          (Staged.stage (fun () -> Analysis.Andersen.run prepared));
        Test.make ~name:"table1/pointer-analysis-naive"
          (Staged.stage (fun () ->
               Analysis.Andersen.run ~cycle_elim:false prepared));
        Test.make ~name:"table1/memory-ssa"
          (Staged.stage (fun () -> Memssa.build prepared pa cg mr));
        Test.make ~name:"table1/vfg-build"
          (Staged.stage (fun () -> Vfg.Build.build prepared pa cg mr mssa));
        Test.make ~name:"fig10-11/resolution"
          (Staged.stage (fun () -> Vfg.Resolve.resolve vfg.graph));
        Test.make ~name:"fig10-11/resolution-naive"
          (Staged.stage (fun () ->
               Vfg.Resolve.resolve ~condense:false vfg.graph));
        Test.make ~name:"fig10-11/guided-instrumentation"
          (Staged.stage (fun () -> Instr.Guided.build vfg gamma));
        Test.make ~name:"fig10-11/opt2"
          (Staged.stage (fun () -> Vfg.Opt2.run vfg));
        Test.make ~name:"fig10-11/msan-baseline"
          (Staged.stage (fun () -> Instr.Full.build prepared));
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:100 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        let ns =
          match Analyze.OLS.estimates est with Some [ v ] -> v | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  micro_ns := !micro_ns @ rows;
  List.iter
    (fun (name, ns) -> Printf.printf "  %-42s %12.0f ns/run\n" name ns)
    rows;
  let ratio opt naive =
    match
      ( List.assoc_opt ("usher/" ^ opt) rows,
        List.assoc_opt ("usher/" ^ naive) rows )
    with
    | Some o, Some n when o > 0.0 -> Printf.sprintf "%.2fx" (n /. o)
    | _ -> "n/a"
  in
  Printf.printf
    "  (speedup vs naive: pointer-analysis %s cycle-elim, resolution %s \
     SCC-condensed)\n"
    (ratio "table1/pointer-analysis" "table1/pointer-analysis-naive")
    (ratio "fig10-11/resolution" "fig10-11/resolution-naive")

(* ------------------------------------------------------------------ *)
(* serveload: a client-mode load generator against an in-process
   `usherc serve` daemon. Mixed traffic — analyze/run over three analogs
   twice (the second pass is all cache hits), one seeded worker crash
   past the retry cap, one over-budget request — then a deliberate
   saturation phase against a 1-worker/1-slot server to measure
   shedding. Per-request latency percentiles and the shed/retry/
   quarantine/cache counters land in the BENCH_usher.json "serve"
   block. *)

let serve_stats : (string * float) list ref = ref []
let serve_status_counts : (string * int) list ref = ref []

let percentile (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    sorted.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)))

let serveload () =
  Printf.printf "\n== serveload: the daemon under generated load ==\n";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "usher-serveload-%d" (Unix.getpid ()))
  in
  let mu = Mutex.create () in
  let replies = ref [] in
  let out line = Mutex.protect mu (fun () -> replies := line :: !replies) in
  let nreq = ref 0 in
  let submit t fields =
    incr nreq;
    Serve.Server.handle_line t ~out
      (Serve.Json.to_line
         (Serve.Json.Obj
            (("id", Serve.Json.Str (Printf.sprintf "L%d" !nreq)) :: fields)))
  in
  let str s = Serve.Json.Str s and num n = Serve.Json.Num (float_of_int n) in
  let sources =
    List.map
      (fun name ->
        (name, Workloads.Spec2000.source ~scale:5 (Workloads.Spec2000.find name)))
      [ "164.gzip"; "181.mcf"; "197.parser" ]
  in
  (* phase 1: mixed traffic on a normally-provisioned server *)
  let t =
    Serve.Server.create
      {
        Serve.Server.default_config with
        jobs = max 2 !jobs;
        incident_dir = dir;
        (* the burst is submitted faster than grants release: widen the
           in-flight watermark so phase 1 measures quarantine/cache
           behaviour, not shedding (phase 2 measures shedding) *)
        admission =
          {
            Serve.Admission.default_config with
            max_queue = 64;
            max_inflight_ms = 1_000_000;
          };
      }
  in
  for _pass = 1 to 2 do
    List.iter
      (fun (_, src) ->
        List.iter
          (fun cmd -> submit t [ ("cmd", str cmd); ("source", str src) ])
          [ "analyze"; "run" ])
      sources
  done;
  submit t
    [ ("cmd", str "run"); ("source", str (List.assoc "164.gzip" sources));
      ("crash_worker", num 99) ];
  submit t
    [ ("cmd", str "analyze"); ("source", str (List.assoc "181.mcf" sources));
      ("budget_ms", num 1) ];
  Serve.Server.drain t;
  (* phase 2: deliberate saturation — one worker, one queue slot *)
  let t2 =
    Serve.Server.create
      {
        Serve.Server.default_config with
        jobs = 1;
        incident_dir = dir;
        admission =
          { Serve.Admission.default_config with max_queue = 1 };
      }
  in
  submit t2
    [ ("cmd", str "run"); ("source", str (List.assoc "164.gzip" sources));
      ("sleep_ms", num 150) ];
  for _ = 1 to 6 do
    submit t2
      [ ("cmd", str "run"); ("source", str (List.assoc "164.gzip" sources)) ]
  done;
  Serve.Server.drain t2;
  (* harvest *)
  let parsed =
    List.filter_map
      (fun l -> match Serve.Json.parse l with Ok j -> Some j | Error _ -> None)
      !replies
  in
  let field_str j k = Option.bind (Serve.Json.member k j) Serve.Json.str in
  let statuses =
    List.fold_left
      (fun acc j ->
        let s = Option.value ~default:"?" (field_str j "status") in
        (s, 1 + Option.value ~default:0 (List.assoc_opt s acc))
        :: List.remove_assoc s acc)
      [] parsed
    |> List.sort compare
  in
  let lat =
    List.filter_map
      (fun j -> Option.bind (Serve.Json.member "elapsed_ms" j) Serve.Json.num)
      parsed
    |> Array.of_list
  in
  Array.sort compare lat;
  let c name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  Printf.printf "  %d request(s), %d reply(ies):" !nreq (List.length parsed);
  List.iter (fun (s, n) -> Printf.printf "  %s %d" s n) statuses;
  Printf.printf
    "\n  latency p50 %.1fms  p90 %.1fms  p99 %.1fms  max %.1fms\n"
    (percentile lat 50.) (percentile lat 90.) (percentile lat 99.)
    (percentile lat 100.);
  Printf.printf
    "  shed %d  retries %d  quarantined %d  cache hits/misses %d/%d\n"
    (c "serve.shed") (c "serve.retries") (c "serve.quarantined")
    (c "serve.cache_hits") (c "serve.cache_misses");
  if List.length parsed <> !nreq then begin
    Printf.printf "serveload FAILED: %d request(s) lost their reply\n"
      (!nreq - List.length parsed);
    exit 1
  end;
  serve_stats :=
    [
      ("requests", float_of_int !nreq);
      ("replies", float_of_int (List.length parsed));
      ("latency_p50_ms", percentile lat 50.);
      ("latency_p90_ms", percentile lat 90.);
      ("latency_p99_ms", percentile lat 99.);
      ("latency_max_ms", percentile lat 100.);
      ("shed", float_of_int (c "serve.shed"));
      ("retries", float_of_int (c "serve.retries"));
      ("quarantined", float_of_int (c "serve.quarantined"));
      ("cache_hits", float_of_int (c "serve.cache_hits"));
      ("cache_misses", float_of_int (c "serve.cache_misses"));
    ];
  serve_status_counts := statuses;
  (* sweep the incident dir *)
  (match Sys.readdir dir with
  | entries ->
    Array.iter
      (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
      entries;
    (try Unix.rmdir dir with Unix.Unix_error _ -> ())
  | exception Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* fuzz: a short stock fuzzing campaign through the full differential
   oracle, measuring end-to-end throughput — programs generated per
   second of campaign wall time, oracle audits per second of summed
   oracle time — and the corpus-distillation yield. The campaign is the
   same code path as `usherc fuzz`, so this doubles as a regression
   gate: a stock campaign finding a soundness incident fails the
   bench run outright (the fuzzer found a sanitizer hole). *)

let fuzz_stats : (string * float) list ref = ref []

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let fuzzload () =
  Printf.printf "\n== fuzz: generative differential campaign throughput ==\n";
  let tmp =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "usher-fuzzbench-%d" (Unix.getpid ()))
  in
  let cfg =
    {
      Audit.Fuzz.default_config with
      count = 60;
      seed = 1;
      jobs = !jobs;
      dir = Filename.concat tmp "incidents";
      corpus = Some (Filename.concat tmp "corpus");
      distill = true;
    }
  in
  let s = Audit.Fuzz.run cfg in
  let programs_per_s =
    float_of_int s.generated /. Float.max 1e-9 s.elapsed_s
  in
  let oracle_per_s = float_of_int s.audited /. Float.max 1e-9 s.oracle_s in
  Printf.printf
    "  %d generated, %d audited, %d skipped in %.2fs (%.0f programs/s)\n"
    s.generated s.audited s.skipped s.elapsed_s programs_per_s;
  Printf.printf
    "  oracle: %.2fs summed (%.0f audits/s)  distilled %d (corpus %d)\n"
    s.oracle_s oracle_per_s s.distilled s.corpus_total;
  rm_rf tmp;
  if s.soundness_incidents > 0 then begin
    Printf.printf
      "fuzz FAILED: stock campaign found %d soundness incident(s)\n"
      s.soundness_incidents;
    exit 1
  end;
  fuzz_stats :=
    [
      ("seed", float_of_int cfg.seed);
      ("programs", float_of_int s.generated);
      ("audited", float_of_int s.audited);
      ("skipped", float_of_int s.skipped);
      ("incidents", float_of_int (List.length s.incidents));
      ("distilled", float_of_int s.distilled);
      ("corpus_total", float_of_int s.corpus_total);
      ("programs_per_s", programs_per_s);
      ("oracle_audits_per_s", oracle_per_s);
      ("oracle_s", s.oracle_s);
      ("elapsed_s", s.elapsed_s);
    ]

(* ------------------------------------------------------------------ *)
(* BENCH_usher.json: a hand-rolled emitter — the container has no JSON
   library and the schema ([schema_version], documented in
   EXPERIMENTS.md) is small enough not to need one. *)

type json =
  | J of string (* raw literal: numbers, booleans *)
  | Jstr of string
  | Jobj of (string * json) list
  | Jarr of json list

let jint n = J (string_of_int n)
let jfloat f = J (if Float.is_finite f then Printf.sprintf "%.6g" f else "0")

let rec emit b ind = function
  | J s -> Buffer.add_string b s
  | Jstr s ->
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Jobj [] -> Buffer.add_string b "{}"
  | Jobj fields ->
    let pad = String.make (ind + 2) ' ' in
    Buffer.add_string b "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b pad;
        emit b (ind + 2) (Jstr k);
        Buffer.add_string b ": ";
        emit b (ind + 2) v)
      fields;
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make ind ' ');
    Buffer.add_char b '}'
  | Jarr [] -> Buffer.add_string b "[]"
  | Jarr items ->
    let pad = String.make (ind + 2) ' ' in
    Buffer.add_string b "[\n";
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ",\n";
        Buffer.add_string b pad;
        emit b (ind + 2) v)
      items;
    Buffer.add_char b '\n';
    Buffer.add_string b (String.make ind ' ');
    Buffer.add_char b ']'

(* ------------------------------------------------------------------ *)
(* vm: the bytecode VM against the reference interpreter on the 164.gzip
   analog. Both engines execute the same Interp.compile output, so every
   comparison below is also a differential test: any outcome field that
   differs (outputs, exit value, steps, the full counter record, the
   detection/ground-truth label sets) fails the bench run outright.
   Steps/s is steady-state — best-of-N over precompiled artifacts, the
   same fairness rule the fig10 harness uses — at scale 10 (the micro
   workload); the per-variant dynamic overhead table reruns Figure 10's
   cost-model metric on VM-produced counters at scale 50. *)

let vm_json : json option ref = ref None
let vm_counters : (string * string * int * int) list ref = ref []

let labels_of tbl =
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let outcome_diff (a : Runtime.Interp.outcome) (b : Runtime.Interp.outcome) :
    string list =
  let d = ref [] in
  let chk name same = if not same then d := name :: !d in
  chk "outputs" (a.outputs = b.outputs);
  chk "exit_value" (a.exit_value = b.exit_value);
  chk "steps" (a.steps = b.steps);
  chk "counters" (a.counters = b.counters);
  chk "detections" (labels_of a.detections = labels_of b.detections);
  chk "gt_uses" (labels_of a.gt_uses = labels_of b.gt_uses);
  !d

let vmbench () =
  Printf.printf "\n== vm: bytecode VM vs reference interpreter (164.gzip) ==\n";
  let module RI = Runtime.Interp in
  let p = Workloads.Spec2000.find "164.gzip" in
  let prepare sc =
    let src = Workloads.Spec2000.source ~scale:sc p in
    let prog = Usher.Pipeline.front src in
    (prog, Usher.Pipeline.analyze prog)
  in
  let plan_of prog an = function
    | None -> Instr.Item.empty_plan prog
    | Some v -> fst (Usher.Pipeline.plan_for an v)
  in
  let differential what (oi : RI.outcome) (ov : RI.outcome) =
    match outcome_diff oi ov with
    | [] -> ()
    | ds ->
      Printf.printf "vm FAILED: %s: engines disagree on %s\n" what
        (String.concat ", " ds);
      exit 1
  in
  (* steady-state steps/s at scale 10, best-of-N on precompiled artifacts *)
  let prog10, an10 = prepare 10 in
  let best_of n f =
    f ();
    let best = ref infinity in
    for _ = 1 to n do
      let t0 = Obs.Clock.now_s () in
      f ();
      let dt = Obs.Clock.elapsed_s t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let micro_row name variant =
    let cp = RI.compile prog10 (plan_of prog10 an10 variant) in
    let bp = Vm.Engine.lower cp in
    let oi = RI.run cp and ov = Vm.Engine.exec bp in
    differential (name ^ "@10") oi ov;
    let ti = best_of 60 (fun () -> ignore (RI.run cp)) in
    let tv = best_of 60 (fun () -> ignore (Vm.Engine.exec bp)) in
    let si = float_of_int oi.steps /. ti and sv = float_of_int ov.steps /. tv in
    Printf.printf
      "  %-8s %8d steps   interp %6.1fM steps/s   vm %6.1fM steps/s   %4.2fx\n"
      name oi.steps (si /. 1e6) (sv /. 1e6) (sv /. si);
    vm_counters :=
      !vm_counters
      @ [ ("vm/164.gzip", name, ov.steps, Vm.Bytecode.code_words bp) ];
    ( name,
      Jobj
        [
          ("steps", jint oi.steps);
          ("code_words", jint (Vm.Bytecode.code_words bp));
          ("interp_steps_per_s", jfloat si);
          ("vm_steps_per_s", jfloat sv);
          ("speedup", jfloat (sv /. si));
        ] )
  in
  (* sequenced lets: list literals evaluate right-to-left *)
  let r_native = micro_row "native" None in
  let r_msan = micro_row "msan" (Some Cfg.Msan) in
  let r_usher = micro_row "usher" (Some Cfg.Usher_full) in
  let micro_rows = [ r_native; r_msan; r_usher ] in
  (* per-variant dynamic overhead at scale 50, cost model over VM counters *)
  let prog50, an50 = prepare 50 in
  let run_both what plan =
    let cp = RI.compile prog50 plan in
    let oi = RI.run cp and ov = Vm.Engine.exec (Vm.Engine.lower cp) in
    differential (what ^ "@50") oi ov;
    ov
  in
  let native50 = run_both "native" (plan_of prog50 an50 None) in
  Printf.printf "  dynamic overhead at scale 50 (%d native steps):\n"
    native50.steps;
  let overhead =
    List.map
      (fun v ->
        let name = Cfg.variant_name v in
        let o = run_both name (plan_of prog50 an50 (Some v)) in
        let pct =
          Runtime.Costmodel.slowdown_pct ~native:native50.counters
            ~instrumented:o.counters ()
        in
        Printf.printf "    %-12s %6.0f%%\n" name pct;
        (name, pct))
      Cfg.all_variants
  in
  Printf.printf
    "  (all engine pairs byte-identical: outputs, exit, steps, counters, \
     detections)\n";
  vm_json :=
    Some
      (Jobj
         [
           ("micro_scale", jint 10);
           ("micro", Jobj micro_rows);
           ("overhead_scale", jint 50);
           ("native_steps", jint native50.steps);
           ( "overhead_pct",
             Jobj (List.map (fun (n, pct) -> (n, jfloat pct)) overhead) );
         ])

(* Every experiment actually run this invocation (forced lazies only, in
   deterministic profile order); the ablation's private runs are not
   experiment records and are deliberately excluded. *)
let collected_experiments () =
  List.concat_map
    (fun (lvl, l) ->
      if Lazy.is_val l then
        List.map
          (fun ((p : Workloads.Profile.t), _, (e : Exp.t)) -> (lvl, p, e))
          (Lazy.force l)
      else [])
    [ ("O0+IM", o0); ("O1", o1); ("O2", o2) ]

let experiment_json (lvl, (p : Workloads.Profile.t), (e : Exp.t)) =
  let a = e.analysis in
  Jobj
    [
      ("name", Jstr p.pname);
      ("level", Jstr lvl);
      ("analysis_cpu_s", jfloat a.analysis_time_s);
      ("analysis_mem_mb", jfloat a.analysis_mem_mb);
      ( "phase_wall_s",
        Jobj (List.map (fun (n, t) -> (n, jfloat t)) a.phase_times_s) );
      ("solve_iterations", jint a.pa.solve_iterations);
      ("pa_sccs_collapsed", jint a.pa.sccs_collapsed);
      ("pa_edges_deduped", jint a.pa.edges_deduped);
      ("states_explored", jint a.gamma.states_explored);
      ("condensed_sccs", jint a.gamma.condensed_sccs);
      ("vfg_nodes", jint (Vfg.Graph.nnodes a.vfg.graph));
      ("vfg_edges", jint (Vfg.Graph.nedges a.vfg.graph));
      ( "verify",
        Jarr
          (List.map
             (fun (r : Verify.Report.t) ->
               Jobj
                 [
                   ("checker", Jstr r.checker);
                   ("wall_s", jfloat r.wall_s);
                   ("facts", jint r.checked);
                   ("violations", jint (Verify.Report.nviolations r));
                 ])
             a.verify_reports) );
      ( "variants",
        Jarr
          (List.map
             (fun (r : Exp.variant_result) ->
               Jobj
                 [
                   ("name", Jstr (Cfg.variant_name r.variant));
                   ("propagations", jint r.static_stats.propagations);
                   ("checks", jint r.static_stats.checks);
                   ("slowdown_pct", jfloat r.slowdown_pct);
                 ])
             e.results) );
    ]

(* The Obs.Metrics registry snapshot: process-wide counters/gauges and
   log2-bucket histograms accumulated by every phase that ran. *)
let metrics_json () =
  Jobj
    (List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Obs.Metrics.Counter n -> jint n
           | Obs.Metrics.Gauge f -> jfloat f
           | Obs.Metrics.Histogram { count; sum; buckets } ->
             Jobj
               [
                 ("count", jint count);
                 ("sum", jint sum);
                 ( "buckets",
                   Jarr
                     (List.map
                        (fun (lo, n) -> Jarr [ jint lo; jint n ])
                        buckets) );
               ] ))
       (Obs.Metrics.snapshot ()))

let write_bench_json ~wall ~cpu () =
  let j =
    Jobj
      [
        ("schema", Jstr schema_version);
        ("scale", jint !scale);
        ("jobs", jint !jobs);
        ("traced", J (if !trace_file <> None then "true" else "false"));
        ("verified", J (if !verify then "true" else "false"));
        ("total_wall_s", jfloat wall);
        ("total_cpu_s", jfloat cpu);
        ("top_heap_words", jint (Gc.quick_stat ()).Gc.top_heap_words);
        ("experiments", Jarr (List.map experiment_json (collected_experiments ())));
        ("metrics", metrics_json ());
        ("micro_ns", Jobj (List.map (fun (n, ns) -> (n, jfloat ns)) !micro_ns));
        ( "serve",
          match !serve_stats with
          | [] -> J "null" (* serveload did not run this invocation *)
          | fs ->
            Jobj
              (List.map (fun (k, v) -> (k, jfloat v)) fs
              @ [
                  ( "by_status",
                    Jobj
                      (List.map
                         (fun (s, n) -> (s, jint n))
                         !serve_status_counts) );
                ]) );
        ( "fuzz",
          match !fuzz_stats with
          | [] -> J "null" (* the fuzz artifact did not run this invocation *)
          | fs -> Jobj (List.map (fun (k, v) -> (k, jfloat v)) fs) );
        ( "vm",
          match !vm_json with
          | None -> J "null" (* the vm artifact did not run this invocation *)
          | Some j -> j );
      ]
  in
  let b = Buffer.create 8192 in
  emit b 0 j;
  Buffer.add_char b '\n';
  let oc = open_out "BENCH_usher.json" in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "(wrote BENCH_usher.json: %d experiment(s), %d micro row(s))\n"
    (List.length (collected_experiments ()))
    (List.length !micro_ns)

(* ------------------------------------------------------------------ *)
(* Work-counter baseline: solve_iterations and states_explored are
   deterministic for a given (profile, level, scale), so CI can catch an
   algorithmic regression without trusting wall clocks. One line per
   experiment: name level solve_iterations states_explored. The vm
   artifact contributes rows of the same shape — vm/<analog> <plan>
   steps code_words, both deterministic at the artifact's fixed scale —
   so a bytecode-size or step-count blowup is caught the same way. *)

let counter_rows () =
  List.map
    (fun (lvl, (p : Workloads.Profile.t), (e : Exp.t)) ->
      (p.pname, lvl, e.analysis.pa.solve_iterations,
       e.analysis.gamma.states_explored))
    (collected_experiments ())
  @ !vm_counters

let write_baseline file =
  let oc = open_out file in
  output_string oc
    "# usher bench work counters: name level solve_iterations states_explored\n\
     # (vm rows: vm/<analog> <plan> steps code_words)\n";
  Printf.fprintf oc "# generated at scale %d\n" !scale;
  List.iter
    (fun (name, lvl, a, b) -> Printf.fprintf oc "%s %s %d %d\n" name lvl a b)
    (counter_rows ());
  close_out oc;
  Printf.printf "(wrote baseline counters to %s)\n" file

let check_baseline file =
  let base = Hashtbl.create 64 in
  let ic = open_in file in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match
           String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
         with
         | [ name; lvl; si; se ] ->
           Hashtbl.replace base (name, lvl)
             (int_of_string si, int_of_string se)
         | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  let failures = ref 0 in
  let checked = ref 0 in
  List.iter
    (fun (name, lvl, a, b) ->
      match Hashtbl.find_opt base (name, lvl) with
      | None ->
        Printf.printf "baseline: no entry for %s %s (skipped)\n" name lvl
      | Some (si, se) ->
        incr checked;
        let chk what now was =
          if was > 0 && float_of_int now > 1.2 *. float_of_int was then begin
            incr failures;
            Printf.printf "REGRESSION %s %s: %s %d -> %d (>20%%)\n" name lvl
              what was now
          end
        in
        let vm_row = String.length name > 3 && String.sub name 0 3 = "vm/" in
        chk (if vm_row then "steps" else "solve_iterations") a si;
        chk (if vm_row then "code_words" else "states_explored") b se)
    (counter_rows ());
  if !failures > 0 then begin
    Printf.printf "(baseline check FAILED: %d counter regression(s))\n" !failures;
    exit 1
  end
  else
    Printf.printf "(baseline check OK: %d experiment(s) within 20%% of %s)\n"
      !checked file

(* ------------------------------------------------------------------ *)

(* Each artifact runs under a top-level trace span, so a `--trace` timeline
   reads artifact -> experiment -> pipeline phase -> function. *)
let artifact name f =
  Obs.Trace.with_span ~cat:"bench" ("bench." ^ name) f

let () =
  let baseline_check = ref false in
  let rec parse = function
    | [] -> []
    | "--jobs" :: n :: rest ->
      jobs := max 1 (int_of_string n);
      parse rest
    | "--baseline" :: f :: rest ->
      baseline_file := Some f;
      baseline_check := true;
      parse rest
    | "--update-baseline" :: rest ->
      update_baseline := Some ();
      parse rest
    | "--trace" :: f :: rest ->
      trace_file := Some f;
      parse rest
    | "--verify" :: rest ->
      verify := true;
      parse rest
    | a :: rest -> (
      match String.index_opt a '=' with
      | Some i when String.sub a 0 i = "scale" ->
        scale := int_of_string (String.sub a (i + 1) (String.length a - i - 1));
        parse rest
      | Some i when String.sub a 0 i = "jobs" ->
        jobs :=
          max 1 (int_of_string (String.sub a (i + 1) (String.length a - i - 1)));
        parse rest
      | Some i when String.sub a 0 i = "trace" ->
        trace_file := Some (String.sub a (i + 1) (String.length a - i - 1));
        parse rest
      | Some i when String.sub a 0 i = "verify" ->
        verify :=
          bool_of_string (String.sub a (i + 1) (String.length a - i - 1));
        parse rest
      | _ -> a :: parse rest)
  in
  let args = parse (Array.to_list Sys.argv |> List.tl) in
  (* Tracing must be armed before any lazy experiment can run (and before
     worker domains spawn, so every domain records from its first event). *)
  if !trace_file <> None then Obs.Trace.start ();
  let t0 = Sys.time () in
  (* Monotonic wall clock: a clock step mid-run must not produce a
     negative or inflated total. *)
  let w0 = Obs.Clock.now_s () in
  (match args with
  | [] ->
    List.iter
      (fun (n, f) -> artifact n f)
      (* vm first: its steps/s timing loops are the only artifact that is
         sensitive to heap state left behind by the parallel artifacts
         (table1 under --jobs orphans its worker domains' major-heap
         pools, and OCaml 5.1 has no compactor to reclaim them). *)
      [
        ("vm", vmbench); ("table1", table1); ("fig10", fig10);
        ("fig11", fig11); ("sec46", sec46); ("detect", detect);
        ("ablation", ablation); ("serveload", serveload); ("fuzz", fuzzload);
      ]
  | names ->
    List.iter
      (fun n ->
        match n with
        | "table1" -> artifact n table1
        | "fig10" -> artifact n fig10
        | "fig11" -> artifact n fig11
        | "sec46" -> artifact n sec46
        | "detect" -> artifact n detect
        | "ablation" -> artifact n ablation
        | "micro" -> artifact n micro
        | "serveload" -> artifact n serveload
        | "fuzz" -> artifact n fuzzload
        | "vm" -> artifact n vmbench
        | other -> Printf.eprintf "unknown artifact %s\n" other)
      names);
  Printf.printf "\n(total bench time: %.1fs wall / %.1fs cpu at scale %d, jobs %d)\n"
    (Obs.Clock.elapsed_s w0)
    (Sys.time () -. t0)
    !scale !jobs;
  write_bench_json ~wall:(Obs.Clock.elapsed_s w0) ~cpu:(Sys.time () -. t0) ();
  (match !trace_file with
  | None -> ()
  | Some f ->
    Obs.Trace.write f;
    Printf.printf "(wrote Chrome trace to %s: %d event(s); open in \
                   chrome://tracing or ui.perfetto.dev)\n"
      f
      (List.length (Obs.Trace.events ())));
  let bfile = Option.value !baseline_file ~default:"bench/baseline_counters.txt" in
  if !update_baseline <> None then write_baseline bfile
  else if !baseline_check then check_baseline bfile
