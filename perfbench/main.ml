(* perfbench: the repository benchmark harness. One process runs one
   workload and exits:

     main.exe --workload batch-o0|batch-o1|serve-edit --seed N
              --seconds S --trace 0|1

   It calls the library's public functions directly, checks every
   operation's output, prints each metric by name with its unit, and ends
   with one JSON line {correct, attempted, failed, metrics}. With
   --trace 0 the metrics are the end-to-end ones. With --trace 1 the
   harness repeats the work as the same public calls that
   [Usher.Experiment.run] and [Serve.Handlers] make, times each call from
   outside with [Obs.Clock], and reports the per-layer metrics. The seed
   only permutes program order (batch) or request order (serve), so every
   count is seed-independent. See README.md beside this file. *)

module Cfg = Usher.Config
module Exp = Usher.Experiment
module P = Usher.Pipeline
module I = Runtime.Interp
module J = Serve.Json

(* ---------- measurement helpers ---------- *)

let now_ns = Obs.Clock.now_ns
let secs_since t0 = float_of_int (Obs.Clock.elapsed_ns t0) *. 1e-9

(* Percentile with linear interpolation between order statistics (the
   "inclusive" method); 0 for no samples. *)
let percentile p (xs : float list) : float =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let h = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median = percentile 50.

let mean xs =
  List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

let geomean xs = exp (mean (List.map log xs))

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () : float =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Set-up is timed many times, spread over the run, each from a compacted
   heap, and reported as the median: one set-up takes milliseconds, so
   samples taken back to back would all see the shared machine at one
   moment. *)
let setup_times = ref []

let time_setup (f : unit -> 'a) : 'a =
  Gc.compact ();
  let t0 = now_ns () in
  let r = f () in
  setup_times := secs_since t0 :: !setup_times;
  r

(* ---------- per-layer accounting (traced runs) ---------- *)

let layer_times : (string, float) Hashtbl.t = Hashtbl.create 32
let layer_counts : (string, int) Hashtbl.t = Hashtbl.create 32

(* Time one call into a layer, from outside, as a harness span. *)
let timed name f =
  let t0 = now_ns () in
  let r = Obs.Trace.with_span ~cat:"perfbench" name f in
  let dt = secs_since t0 in
  Hashtbl.replace layer_times name
    (dt +. Option.value ~default:0. (Hashtbl.find_opt layer_times name));
  r

let count name n =
  Hashtbl.replace layer_counts name
    (n + Option.value ~default:0 (Hashtbl.find_opt layer_counts name))

let knobs = Cfg.default_knobs

(* [Pipeline.front_guarded] under the default knobs: nothing is
   injected, so its optimizer guard never fires. *)
let compose_front ~level src : Ir.Prog.t =
  let prog = timed "tinyc.compile_s" (fun () -> Tinyc.Lower.compile src) in
  timed "optim.run_s" (fun () -> Optim.Pipeline.run level prog);
  count "ir.instrs" (Ir.Prog.size prog);
  prog

(* [Pipeline.analyze] with no faults, no certificate checking and
   monolithic resolution, under the default knobs or the budget the
   server grants: as long as the budget holds, no rung of the degradation
   ladder fires and these are exactly its calls. *)
let compose_analysis ?budget (prog : Ir.Prog.t) : P.analysis =
  let pa =
    timed "analysis.andersen_s" (fun () ->
        Analysis.Andersen.run
          ~config:
            {
              Analysis.Andersen.field_sensitive = knobs.Cfg.field_sensitive;
              heap_cloning = knobs.heap_cloning;
              small_array_fields = knobs.small_array_fields;
            }
          ?budget prog)
  in
  count "analysis.solve_iterations" pa.Analysis.Andersen.solve_iterations;
  let cg, mr =
    timed "analysis.callgraph_modref_s" (fun () ->
        let cg = Analysis.Callgraph.build prog pa in
        (cg, Analysis.Modref.compute prog pa cg))
  in
  let mssa = timed "memssa.build_s" (fun () -> Memssa.build ?budget prog pa cg mr) in
  let build track_memory =
    Vfg.Build.build
      ~config:{ Vfg.Build.track_memory; semi_strong = knobs.semi_strong }
      ?budget prog pa cg mr mssa
  in
  let vfg, vfg_tl =
    timed "vfg.build_s" (fun () ->
        let full = build true in
        (full, build false))
  in
  count "vfg.nodes" (Vfg.Graph.nnodes vfg.Vfg.Build.graph);
  count "vfg.edges" (Vfg.Graph.nedges vfg.graph);
  let resolve (b : Vfg.Build.t) =
    Vfg.Resolve.resolve ~context_sensitive:knobs.context_sensitive ?budget b.graph
  in
  let gamma, gamma_tl =
    timed "vfg.resolve_s" (fun () ->
        let g = resolve vfg in
        (g, resolve vfg_tl))
  in
  count "vfg.states_explored"
    (gamma.Vfg.Resolve.states_explored + gamma_tl.states_explored);
  let opt2 =
    timed "vfg.opt2_s" (fun () ->
        Vfg.Opt2.run ~context_sensitive:knobs.context_sensitive ?budget vfg)
  in
  count "vfg.opt2_redirected" opt2.Vfg.Opt2.redirected;
  {
    P.prog;
    pa;
    cg;
    mr;
    mssa;
    vfg;
    gamma;
    vfg_tl;
    gamma_tl;
    opt2;
    summary_stats = None;
    analysis_time_s = 0.;
    analysis_mem_mb = 0.;
    phase_times_s = [];
    knobs;
    distrusted = Hashtbl.create 1;
    degraded_all = false;
    events = ref [];
    verify_reports = [];
  }

(* [Vm.Engine.run_plan Vm]: compile, lower to bytecode, execute. *)
let compose_exec prog plan : I.outcome =
  let bp =
    timed "vm.lower_s" (fun () -> Vm.Engine.lower (I.compile prog plan))
  in
  let o = timed "vm.exec_s" (fun () -> Vm.Engine.exec bp) in
  count "vm.steps" o.I.steps;
  o

(* Experiment.run's soundness gate for one instrumented run. *)
let soundness ~level ~name ~native prog v (o : I.outcome) =
  timed "usher.soundness_s" (fun () ->
      if o.outputs <> native.I.outputs then
        raise
          (Exp.Unsound
             (Printf.sprintf "%s/%s: instrumented run diverged from native"
                name (Cfg.variant_name v)));
      if level = Optim.Pipeline.O0_IM then
        Hashtbl.iter
          (fun lbl () ->
            if not (Exp.covered prog o.detections lbl) then
              raise
                (Exp.Unsound
                   (Printf.sprintf "%s/%s: undefined use at l%d not detected"
                      name (Cfg.variant_name v) lbl)))
          o.gt_uses)

(* ---------- workloads ---------- *)

(* Where traced runs write their timeline and `check` its incidents. *)
let out_dir = "perfbench/out"

(* What a workload run reports: operations attempted and the failures
   among them, the end-to-end metrics, and for a traced run the seconds
   of the same work traced and untraced plus the serve layer's metrics. *)
type outcome = {
  attempted : int;
  failures : string list;
  e2e : (string * string * float) list;
  layers : (float * float) option;
  serve : (string * string * float) list;
}

(* ---------- batch workloads ---------- *)

(* What one experiment yields that the metrics and the cross-checks use:
   every field is deterministic, so two computations must agree exactly. *)
type variant_sum = {
  variant : Cfg.variant;
  slowdown : float;
  checks : int;
  compressed : int;
  detections : int;
}

type prog_sum = {
  variants : variant_sum list;
  outputs : int list;
  gt_uses : int;
  iterations : int;
  states : int;
  redirected : int;
}

let sum_of_experiment (e : Exp.t) : prog_sum =
  {
    variants =
      List.map
        (fun (r : Exp.variant_result) ->
          {
            variant = r.variant;
            slowdown = r.slowdown_pct;
            checks = r.static_stats.checks;
            compressed = r.compressed_away;
            detections = List.length r.detections;
          })
        e.results;
    outputs = e.native_outputs;
    gt_uses = List.length e.gt_uses;
    iterations = e.table1.pa_solve_iterations;
    states = e.table1.resolve_states;
    redirected = e.analysis.opt2.redirected;
  }

(* [Experiment.run ~engine:Vm] as its public calls, each timed. *)
let compose_experiment ~level ~name src : prog_sum =
  let prog = compose_front ~level src in
  let a = compose_analysis prog in
  ignore (timed "usher.stats_s" (fun () -> Usher.Analysis_stats.compute ~src a));
  let native = compose_exec prog (Instr.Item.empty_plan prog) in
  let variants =
    List.map
      (fun v ->
        let plan, _ = timed "instr.plan_s" (fun () -> P.plan_for a v) in
        count "instr.checks" (Instr.Item.stats_of plan).checks;
        let compressed =
          if level = Optim.Pipeline.O0_IM then 0
          else
            timed "instr.compress_s" (fun () ->
                Instr.Compress.fold_constants plan + Instr.Compress.run plan)
        in
        count "instr.compressed_away" compressed;
        let o = compose_exec prog plan in
        soundness ~level ~name ~native prog v o;
        {
          variant = v;
          slowdown =
            Runtime.Costmodel.slowdown_pct ~native:native.counters
              ~instrumented:o.counters ();
          checks = (Instr.Item.stats_of plan).checks;
          compressed;
          detections = Hashtbl.length o.detections;
        })
      Cfg.all_variants
  in
  {
    variants;
    outputs = native.outputs;
    gt_uses = Hashtbl.length native.gt_uses;
    iterations = a.pa.solve_iterations;
    states = a.gamma.states_explored;
    redirected = a.opt2.redirected;
  }

type 'a op = { name : string; latency_s : float; result : ('a, string) result }

(* One operation, timed alone. The heap is compacted first, untimed, so
   no operation pays for the garbage of the one before it and the seeded
   order cannot move the times. *)
let run_op name f =
  Gc.compact ();
  let t0 = now_ns () in
  let result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  { name; latency_s = secs_since t0; result }

let work_s ops = List.fold_left (fun acc o -> acc +. o.latency_s) 0. ops

(* One untraced pass: [Experiment.run] per program, each an operation,
   with [between] run untimed after each. A pass takes the sum of their
   times. *)
let batch_pass ~level ~between progs : prog_sum op list =
  List.map
    (fun (name, src) ->
      let op =
        run_op name (fun () ->
            sum_of_experiment (Exp.run ~name ~level ~engine:Vm.Engine.Vm src))
      in
      between ();
      op)
    progs

let slowdown_of v (s : prog_sum) =
  (List.find (fun r -> r.variant = v) s.variants).slowdown

let checks_pct (s : prog_sum) =
  let c v = (List.find (fun r -> r.variant = v) s.variants).checks in
  100. *. float_of_int (c Cfg.Usher_full) /. float_of_int (max 1 (c Cfg.Msan))

(* The quality metrics: Fig. 10's slowdowns (geometric mean over
   programs) and Fig. 11's Usher checks as a share of MSan's. *)
let quality (sums : prog_sum list) =
  [
    ("usher_slowdown_pct", "%", geomean (List.map (slowdown_of Cfg.Usher_full) sums));
    ("msan_slowdown_pct", "%", geomean (List.map (slowdown_of Cfg.Msan) sums));
    ("usher_checks_pct", "%", mean (List.map checks_pct sums));
  ]

(* Operation failures of a batch: anything [Experiment.run] raised, a
   native output that differs from the reference interpreter's run of the
   unoptimized program, a pass that disagrees with the first pass, and
   (O0+IM) 197.parser's undefined use missed by any variant (§4.5). *)
let batch_failures ~level ~refs ~first (ops : prog_sum op list) : string list =
  List.filter_map
    (fun op ->
      let fail fmt = Printf.ksprintf (fun m -> Some (op.name ^ ": " ^ m)) fmt in
      match op.result with
      | Error m -> fail "%s" m
      | Ok s ->
        if s.outputs <> List.assoc op.name refs then
          fail "native outputs differ from the reference interpreter"
        else if List.assoc_opt op.name first |> Option.fold ~none:false ~some:(( <> ) s) then
          fail "results differ between two computations of the same program"
        else if
          level = Optim.Pipeline.O0_IM && op.name = "197.parser"
          && (s.gt_uses = 0 || List.exists (fun r -> r.detections = 0) s.variants)
        then fail "the known undefined use is not detected by every variant"
        else None)
    ops

let batch ~level ~names ~rng ~seconds ~trace : outcome =
  let profiles = shuffle rng (List.map Workloads.Spec2000.find names) in
  (* Set-up: the workload's sources, generated again after every
     operation to sample its time over the whole run. *)
  let generate () =
    List.map
      (fun (p : Workloads.Profile.t) -> (p.pname, Workloads.Spec2000.source ~scale:30 p))
      profiles
  in
  let progs = time_setup generate in
  let between () = ignore (time_setup generate) in
  (* Whole passes until the run length is used up; the traced run makes
     one untraced pass, its baseline. *)
  let rec more acc elapsed =
    if acc <> [] && (trace || elapsed >= seconds) then List.rev acc
    else
      let ops = batch_pass ~level ~between progs in
      more (ops :: acc) (elapsed +. work_s ops)
  in
  let passes = more [] 0. in
  let rss = peak_rss_mb () in
  List.iteri
    (fun i ops ->
      Printf.printf "pass %d: %.3fs  %s\n" (i + 1) (work_s ops)
        (String.concat " "
           (List.map (fun o -> Printf.sprintf "%s=%.3f" o.name o.latency_s) ops)))
    passes;
  let traced =
    if not trace then []
    else begin
      Obs.Trace.start ();
      let ops =
        List.map
          (fun (name, src) ->
            run_op name (fun () -> compose_experiment ~level ~name src))
          progs
      in
      Obs.Trace.stop ();
      ops
    end
  in
  (* Outside the timed window: the reference outputs, from the
     interpreter on the unoptimized lowering. *)
  let refs =
    List.map
      (fun (name, src) ->
        (name, (I.run_native (Tinyc.Lower.compile src)).outputs))
      progs
  in
  (* By name, so that float sums do not depend on the seeded order. *)
  let first =
    List.filter_map
      (fun op -> Result.to_option (Result.map (fun s -> (op.name, s)) op.result))
      (List.hd passes)
    |> List.sort compare
  in
  let all_ops = List.concat passes @ traced in
  let sums = List.map snd first in
  let total f = List.fold_left (fun acc s -> acc + f s) 0 sums in
  Printf.printf "%-28s iterations %d, states %d, redirected %d, compressed %d\n"
    "work counts (first pass)"
    (total (fun s -> s.iterations))
    (total (fun s -> s.states))
    (total (fun s -> s.redirected))
    (total (fun s -> List.fold_left (fun acc r -> acc + r.compressed) 0 s.variants));
  (* A batch user waits for the whole suite, so a request is one pass and
     the latency percentiles and the throughput are other views of the
     few pass times, not signals of their own. Single programs take 0.02
     to 12 s and jitter by up to 2x on a shared machine, too much to rank
     stably. *)
  let pass_s = List.map work_s passes in
  let e2e =
    [
      ("setup_s", "s", median !setup_times);
      ("wall_s", "s", median pass_s);
      ("peak_rss_mb", "MB", rss);
      ("latency_p50_ms", "ms", 1e3 *. percentile 50. pass_s);
      ("latency_p90_ms", "ms", 1e3 *. percentile 90. pass_s);
      ("throughput_rps", "1/s",
       float_of_int (List.length (List.concat passes)) /. List.fold_left ( +. ) 0. pass_s);
    ]
    @ if sums = [] then [] else quality sums
  in
  {
    attempted = List.length all_ops;
    failures = batch_failures ~level ~refs ~first all_ops;
    e2e;
    layers = (if trace then Some (work_s traced, List.hd pass_s) else None);
    serve = [];
  }

(* ---------- serve-edit ---------- *)

(* The ten analogs whose one-shot `usherc run` takes at most 0.4 s. *)
let serve_analogs =
  [
    "164.gzip"; "175.vpr"; "179.art"; "181.mcf"; "183.equake"; "186.crafty";
    "188.ammp"; "197.parser"; "256.bzip2"; "300.twolf";
  ]

let serve_cmds = [ "analyze"; "run"; "check" ]
let concurrency = 2 (* requests outstanding; also the server's jobs *)
let repeats_per_block = 8

type sreq = { cmd : string; src : string }

let find_all (pat : string) (s : string) : int list =
  let m = String.length pat and n = String.length s in
  let rec go i acc =
    if i + m > n then List.rev acc
    else if String.sub s i m = pat then go (i + m) (i :: acc)
    else go (i + 1) acc
  in
  go 0 []

(* A one-literal edit: the modulus of one of main's "acc = (acc + f(..))
   % 1048576;" lines, chosen by block and analog, becomes a smaller
   positive literal. The edited program still compiles, runs and
   terminates, and the value it prints changes. *)
let acc_site = ")) % "
let modulus = "1048576"

let edit src ~block ~ai =
  let sites = find_all (acc_site ^ modulus ^ ";") src in
  let pos =
    String.length acc_site
    + List.nth sites (((block * 7) + (ai * 3)) mod List.length sites)
  in
  let after = pos + String.length modulus in
  String.sub src 0 pos
  ^ string_of_int (1000 + (((block * 37) + (ai * 11)) mod 9000))
  ^ String.sub src after (String.length src - after)

(* Block [b] of the request cycle: every analog (with its block-[b]
   edit) under every command, plus [repeats_per_block] verbatim repeats
   of block [b-1] requests — about one request in five — so the reply
   cache sees hits among the misses. The seed only orders a block. *)
let block_base sources b =
  List.concat
    (List.mapi
       (fun ai src ->
         let src = edit src ~block:b ~ai in
         List.map (fun cmd -> { cmd; src }) serve_cmds)
       sources)

let block_requests rng sources b =
  let repeats =
    if b = 0 then []
    else
      let prev = Array.of_list (block_base sources (b - 1)) in
      List.init repeats_per_block (fun j ->
          prev.((b * 11 + j * 4) mod Array.length prev))
  in
  shuffle rng (block_base sources b @ repeats)

let block_size = (List.length serve_analogs * List.length serve_cmds) + repeats_per_block

let request_line id r =
  J.to_line
    (J.Obj
       ([ ("id", J.Str id); ("cmd", J.Str r.cmd); ("source", J.Str r.src) ]
       @ if r.cmd = "run" then [ ("engine", J.Str "vm") ] else []))

type sreply = {
  req : sreq;
  status : string;
  output : string;
  elapsed_ms : float;
  cached : bool;
  latency_ms : float;
}

(* The closed loop: one generator (this thread) keeps [concurrency]
   requests outstanding until the window closes and the current block is
   complete, so every run serves whole blocks of one fixed mix; then it
   drains the server. Latency runs from the hand-off to [handle_line] to
   the reply. *)
let serve_load srv ~rng ~sources ~seconds =
  let mu = Mutex.create () and cv = Condition.create () in
  let outstanding = ref 0 and replies = ref [] in
  let out line =
    let t = now_ns () in
    Mutex.protect mu (fun () ->
        replies := (t, line) :: !replies;
        decr outstanding;
        Condition.signal cv)
  in
  let sent : (string, sreq * int) Hashtbl.t = Hashtbl.create 256 in
  let pending = ref [] and block = ref 0 in
  let rec next_req () =
    match !pending with
    | r :: rest ->
      pending := rest;
      r
    | [] ->
      pending := block_requests rng sources !block;
      incr block;
      next_req ()
  in
  let t_start = now_ns () in
  let deadline = t_start + int_of_float (seconds *. 1e9) in
  let rec loop n =
    Mutex.protect mu (fun () ->
        while !outstanding >= concurrency do
          Condition.wait cv mu
        done);
    if now_ns () < deadline || !pending <> [] then begin
      let id = Printf.sprintf "r%d" n in
      let r = next_req () in
      let line = request_line id r in
      Mutex.protect mu (fun () -> incr outstanding);
      Hashtbl.replace sent id (r, now_ns ());
      Serve.Server.handle_line srv ~out line;
      loop (n + 1)
    end
  in
  loop 0;
  Serve.Server.drain srv;
  let parse (t, line) =
    match J.parse line with
    | Error _ -> None
    | Ok j -> (
      let str k = Option.bind (J.member k j) J.str in
      let num k = Option.bind (J.member k j) J.num in
      match Option.bind (str "id") (Hashtbl.find_opt sent) with
      | None -> None
      | Some (req, t0) ->
        Some
          ( Option.get (str "id"),
            {
              req;
              status = Option.value ~default:"?" (str "status");
              output = Option.value ~default:"" (str "output");
              elapsed_ms = Option.value ~default:0. (num "elapsed_ms");
              cached = Option.bind (J.member "cached" j) J.bool_ = Some true;
              latency_ms = float_of_int (t - t0) /. 1e6;
            } ))
  in
  let t_last = List.fold_left (fun acc (t, _) -> max acc t) t_start !replies in
  (List.filter_map parse !replies, Hashtbl.length sent,
   float_of_int (t_last - t_start) *. 1e-9)

(* `check` prints each certificate checker's wall time, padded to a
   width ("verify: pta        0.42 ms ..."); that one field and its
   padding are masked before outputs are compared. *)
let mask_check_times out =
  let is_num c = c = '.' || c = ' ' || (c >= '0' && c <= '9') in
  String.split_on_char '\n' out
  |> List.map (fun l ->
         match find_all " ms  " l with
         | i :: _ when String.starts_with ~prefix:"verify: " l ->
           let j = ref i in
           while !j > 0 && is_num l.[!j - 1] do decr j done;
           String.sub l 0 !j ^ " #" ^ String.sub l i (String.length l - i)
         | _ -> l)
  |> String.concat "\n"

let ref_knobs =
  Usher.Budget.admit_ms knobs Serve.Admission.default_config.default_budget_ms

(* The one-shot rendering of a request — what `usherc <cmd>` prints —
   with the knobs the server grants it. *)
let render ~incident_dir r : string * string =
  let b = Buffer.create 4096 in
  let level = Optim.Pipeline.O0_IM and variant = Cfg.Usher_full in
  match
    match r.cmd with
    | "analyze" -> Serve.Handlers.analyze ~knobs:ref_knobs ~level ~variant b r.src
    | "run" ->
      Serve.Handlers.run ~knobs:ref_knobs ~level ~variant ~engine:Vm.Engine.Vm b
        r.src
    | _ -> Serve.Handlers.check ~knobs:ref_knobs ~level ~incident_dir b r.src
  with
  | code ->
    ( Serve.Protocol.status_name (Serve.Protocol.status_of_exit_code code),
      Buffer.contents b )
  | exception e -> ("error", Printexc.to_string e)

(* What a request's composition and its one-shot rendering must agree
   on: the states resolution explored and the nodes Opt II redirected,
   Usher's checks (`check` plans nothing), and for `run` the native
   outputs. *)
type req_sum = { states : int; redirected : int; checks : int option; outputs : int list }

(* The same, read back from the rendering of `analyze` on the request's
   source and, for `run`, from the request's own rendering. *)
let rendered_sum ~analyzed ~own cmd : req_sum =
  let lines s = String.split_on_char '\n' s in
  let scan out fmt =
    List.find_map (fun l -> try Some (Scanf.sscanf l fmt Fun.id) with _ -> None) (lines out)
    |> Option.value ~default:(-1)
  in
  {
    states = scan analyzed "resolution: %d states";
    redirected = scan analyzed "Opt II redirected %d nodes";
    checks =
      (if cmd = "check" then None
       else Some (scan analyzed "static shadow propagations: %_d checks: %d"));
    outputs =
      (if cmd <> "run" then []
       else List.filter_map (fun l -> Scanf.sscanf_opt l "output: %d%!" Fun.id) (lines own));
  }

(* One request as the handler's public calls, each timed, under the
   knobs the server grants it. *)
let compose_request r : req_sum =
  let level = Optim.Pipeline.O0_IM and v = Cfg.Usher_full in
  let budget = Usher.Budget.of_knobs ref_knobs in
  let prog = compose_front ~level r.src in
  let a = compose_analysis ?budget prog in
  let plan () =
    let plan, _ = timed "instr.plan_s" (fun () -> P.plan_for a v) in
    let checks = (Instr.Item.stats_of plan).checks in
    count "instr.checks" checks;
    (plan, Some checks)
  in
  let checks, outputs =
    match r.cmd with
    | "analyze" ->
      let _, checks = plan () in
      ignore (timed "usher.stats_s" (fun () -> Usher.Analysis_stats.compute ~src:r.src a));
      (checks, [])
    | "run" ->
      let plan, checks = plan () in
      let native = compose_exec prog (Instr.Item.empty_plan prog) in
      soundness ~level ~name:"request" ~native prog v (compose_exec prog plan);
      (checks, native.outputs)
    | _ ->
      let gi suffix b g =
        {
          Verify.Run.gi_suffix = suffix;
          gi_build = b;
          gi_gamma = Some g;
          gi_allow_f_pins = false;
        }
      in
      let reports =
        timed "verify.check_s" (fun () ->
            Verify.Run.check_all ?budget ~context_sensitive:knobs.context_sensitive
              prog a.pa a.cg a.mr a.mssa
              [ gi "" a.vfg a.gamma; gi "-tl" a.vfg_tl a.gamma_tl ])
      in
      if not (Verify.Run.all_ok reports) then failwith "certificate violation";
      (None, [])
  in
  { states = a.gamma.states_explored; redirected = a.opt2.redirected; checks; outputs }

let serve_edit ~rng ~seconds ~trace : outcome =
  let incident_dir = Filename.concat out_dir "incidents" in
  (* Set-up: generate the sources and create the server. It is sampled
     before the load and again after each quality operation, and every
     server but the one under load is drained at once. *)
  let setup () =
    let sources =
      List.map
        (fun n -> Workloads.Spec2000.source ~scale:30 (Workloads.Spec2000.find n))
        serve_analogs
    in
    ( sources,
      Serve.Server.create { Serve.Server.default_config with jobs = concurrency; incident_dir } )
  in
  let resample () = Serve.Server.drain (snd (time_setup setup)) in
  for _ = 1 to 5 do resample () done;
  let sources, srv = time_setup setup in
  let replies, nsent, span_s = serve_load srv ~rng ~sources ~seconds in
  let rss = peak_rss_mb () in
  (* Outside the timed window: every distinct request's one-shot
     rendering, on [concurrency] domains. *)
  let distinct = List.sort_uniq compare (List.map (fun (_, r) -> r.req) replies) in
  let refs =
    List.combine distinct (Exp.parallel_map ~jobs:concurrency (render ~incident_dir) distinct)
  in
  let ids = List.map fst replies in
  let failures =
    (if List.length (List.sort_uniq compare ids) <> List.length ids then
       [ "a request was answered twice" ]
     else [])
    @ (if nsent <> List.length replies then
         [ Printf.sprintf "%d request(s) lost their reply" (nsent - List.length replies) ]
       else [])
    @ List.filter_map
        (fun (id, r) ->
          let status, output = List.assoc r.req refs in
          if not (List.mem r.status [ "ok"; "detected" ]) then
            Some (Printf.sprintf "%s (%s): status %s" id r.req.cmd r.status)
          else if r.status <> status || mask_check_times r.output <> mask_check_times output then
            Some (Printf.sprintf "%s (%s): reply differs from the one-shot rendering" id r.req.cmd)
          else None)
        replies
  in
  let rs = List.map snd replies in
  let lat = List.map (fun r -> r.latency_ms) rs in
  let nrep = float_of_int (List.length rs) in
  (* The quality metrics over the served analogs, unedited. *)
  let qops =
    List.map2
      (fun name src ->
        let op =
          run_op name (fun () -> sum_of_experiment (Exp.run ~name ~engine:Vm.Engine.Vm src))
        in
        resample ();
        op)
      serve_analogs sources
  in
  let qsums = List.filter_map (fun o -> Result.to_option o.result) qops in
  let qfail =
    List.filter_map
      (fun o -> match o.result with Error m -> Some (o.name ^ ": " ^ m) | Ok _ -> None)
      qops
  in
  let e2e =
    [
      ("setup_s", "s", median !setup_times);
      (* seconds per block at the measured rate: throughput restated *)
      ("wall_s", "s", span_s *. float_of_int block_size /. nrep);
      ("peak_rss_mb", "MB", rss);
      ("latency_p50_ms", "ms", percentile 50. lat);
      ("latency_p90_ms", "ms", percentile 90. lat);
      ("throughput_rps", "1/s", nrep /. span_s);
    ]
    @ if qsums = [] then [] else quality qsums
  in
  let p50_of f = percentile 50. (List.filter_map f rs) in
  let serve =
    [
      ("serve.service_ms_p50", "ms", p50_of (fun r -> Some r.elapsed_ms));
      ("serve.queue_ms_p50", "ms", p50_of (fun r -> Some (r.latency_ms -. r.elapsed_ms)));
    ]
    @ List.map
        (fun cmd ->
          ( Printf.sprintf "serve.%s_ms_p50" cmd,
            "ms",
            p50_of (fun r ->
                if r.req.cmd = cmd && not r.cached then Some r.elapsed_ms else None) ))
        serve_cmds
    @ [
        ("serve.cache_hit_pct", "%",
         100. *. float_of_int (List.length (List.filter (fun r -> r.cached) rs)) /. nrep);
        ("serve.shed", "count",
         float_of_int (List.length (List.filter (fun r -> r.status = "overloaded") rs)));
      ]
  in
  (* Traced run: block 0 in canonical order, once through the handlers
     (the untraced baseline) and once as their timed public calls, which
     must agree with the handlers' renderings. *)
  let layers, tfail =
    if not trace then (None, [])
    else begin
      let block = block_base sources 0 in
      let rendered = List.map (fun r -> run_op r.cmd (fun () -> render ~incident_dir r)) block in
      let rendering r =
        match (List.assoc r (List.combine block rendered)).result with
        | Ok (_, out) -> out
        | Error m -> m
      in
      Obs.Trace.start ();
      let ops = List.map (fun r -> run_op r.cmd (fun () -> compose_request r)) block in
      Obs.Trace.stop ();
      ( Some (work_s ops, work_s rendered),
        List.filter_map
          (fun (r, o) ->
            match o.result with
            | Error m -> Some (o.name ^ ": " ^ m)
            | Ok s ->
              let analyzed = rendering { r with cmd = "analyze" } in
              if s <> rendered_sum ~analyzed ~own:(rendering r) r.cmd then
                Some (o.name ^ ": composed calls disagree with the handlers' rendering")
              else None)
          (List.combine block ops) )
    end
  in
  {
    attempted = nsent + List.length qops;
    failures = failures @ qfail @ tfail;
    e2e;
    layers;
    serve;
  }

(* ---------- reporting ---------- *)

let end_to_end_names =
  [
    "setup_s"; "wall_s"; "peak_rss_mb"; "latency_p50_ms"; "latency_p90_ms";
    "throughput_rps"; "usher_slowdown_pct"; "msan_slowdown_pct";
    "usher_checks_pct";
  ]

(* Per-layer metrics, in pipeline order, with their units. *)
let layer_time_names =
  [
    "tinyc.compile_s"; "optim.run_s"; "analysis.andersen_s";
    "analysis.callgraph_modref_s"; "memssa.build_s"; "vfg.build_s";
    "vfg.resolve_s"; "vfg.opt2_s"; "usher.stats_s"; "instr.plan_s";
    "instr.compress_s"; "vm.lower_s"; "vm.exec_s"; "usher.soundness_s";
    "verify.check_s";
  ]

let layer_count_names =
  [
    "ir.instrs"; "analysis.solve_iterations"; "vfg.nodes"; "vfg.edges";
    "vfg.states_explored"; "vfg.opt2_redirected"; "instr.checks";
    "instr.compressed_away"; "vm.steps";
  ]

let serve_layer_names =
  [
    ("serve.service_ms_p50", "ms"); ("serve.queue_ms_p50", "ms");
    ("serve.analyze_ms_p50", "ms"); ("serve.run_ms_p50", "ms");
    ("serve.check_ms_p50", "ms"); ("serve.cache_hit_pct", "%");
    ("serve.shed", "count");
  ]

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let report ~workload ~trace { attempted; failures; e2e; layers; serve } =
  let metrics =
    if not trace then
      List.map
        (fun n ->
          match List.find_opt (fun (m, _, _) -> m = n) e2e with
          | Some m -> m
          | None -> (n, "?", nan))
        end_to_end_names
    else begin
      let traced, untraced = Option.get layers in
      let time n = Option.value ~default:0. (Hashtbl.find_opt layer_times n) in
      let cnt n = Option.value ~default:0 (Hashtbl.find_opt layer_counts n) in
      let accounted = List.fold_left (fun acc n -> acc +. time n) 0. layer_time_names in
      let exec_s = time "vm.exec_s" in
      List.map (fun n -> (n, "s", time n)) layer_time_names
      @ List.map (fun n -> (n, "count", float_of_int (cnt n))) layer_count_names
      @ [
          ("vm.steps_per_s", "1/s",
           if exec_s > 0. then float_of_int (cnt "vm.steps") /. exec_s else 0.);
        ]
      @ List.map
          (fun (n, u) ->
            match List.find_opt (fun (m, _, _) -> m = n) serve with
            | Some m -> m
            | None -> (n, u, 0.))
          serve_layer_names
      @ [
          ("layers.unaccounted_pct", "%", 100. *. (traced -. accounted) /. traced);
          ("trace.overhead_pct", "%", 100. *. (traced -. untraced) /. untraced);
        ]
    end
  in
  if trace then
    Obs.Trace.write (Filename.concat out_dir (workload ^ ".trace.json"));
  let failed = List.length failures in
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) failures;
  Printf.printf "%-28s %d attempted, %d failed (%.1f%%)\n" "ops" attempted failed
    (100. *. float_of_int failed /. float_of_int (max 1 attempted));
  List.iter (fun (n, u, v) -> Printf.printf "%-28s %s %s\n" n (number v) u) metrics;
  let ok = failed = 0 && List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  let json_metrics =
    List.map
      (fun (n, u, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n
          (if Float.is_finite v then number v else "null")
          u)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    ok (max 1 attempted) failed
    (String.concat ", " json_metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME batch-o0, batch-o1 or serve-edit");
      ("--seed", Arg.Set_int seed, "N seed of the program or request order");
      ("--seconds", Arg.Set_float seconds, "S run length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  let trace = !trace = 1 in
  if not (Sys.file_exists out_dir) then begin
    if not (Sys.file_exists (Filename.dirname out_dir)) then
      Unix.mkdir (Filename.dirname out_dir) 0o755;
    Unix.mkdir out_dir 0o755
  end;
  let rng = Random.State.make [| !seed |] in
  let seconds = !seconds in
  let o1_names =
    [ "164.gzip"; "175.vpr"; "177.mesa"; "186.crafty"; "188.ammp"; "197.parser"; "300.twolf" ]
  in
  let outcome =
    match !workload with
    | "batch-o0" ->
      batch ~level:Optim.Pipeline.O0_IM
        ~names:(List.map (fun (p : Workloads.Profile.t) -> p.pname) Workloads.Spec2000.all)
        ~rng ~seconds ~trace
    | "batch-o1" -> batch ~level:Optim.Pipeline.O1 ~names:o1_names ~rng ~seconds ~trace
    | "serve-edit" -> serve_edit ~rng ~seconds ~trace
    | w ->
      Printf.eprintf "unknown workload %S (batch-o0, batch-o1, serve-edit)\n" w;
      exit 2
  in
  report ~workload:!workload ~trace outcome
