(* lib/serve: the analysis daemon and its supporting pieces.

   The server tests run everything in process: a [Serve.Server.t] with a
   collector closure as [out], driven through [handle_line] exactly as
   the stdin/socket transports drive it. That keeps the properties
   deterministic (the test hooks [sleep_ms] / [crash_worker] stand in
   for real nondeterminism) while exercising the same intake, admission,
   pool, retry and reply paths as the binary. *)

let with_tmpdir (f : string -> 'a) : 'a =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "usher-serve-%d-%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Audit.Incident.ensure_dir dir;
  Fun.protect
    ~finally:(fun () ->
      match Sys.readdir dir with
      | entries ->
        Array.iter
          (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
          entries;
        (try Unix.rmdir dir with Unix.Unix_error _ -> ())
      | exception Sys_error _ -> ())
    (fun () -> f dir)

(* ---- Serve.Json ---- *)

let json_roundtrip () =
  let open Serve.Json in
  let v =
    Obj
      [
        ("id", Str "r\"1\"\nx");
        ("n", Num 42.);
        ("f", Num 1.5);
        ("b", Bool true);
        ("nul", Null);
        ("xs", Arr [ Num 1.; Str "two"; Bool false ]);
        ("empty", Obj []);
      ]
  in
  let line = to_line v in
  Alcotest.(check bool) "single line" false (String.contains line '\n');
  match parse line with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')

let json_escapes () =
  let open Serve.Json in
  (match parse {|{"s":"aA\n\t\\\"z"}|} with
  | Ok (Obj [ ("s", Str s) ]) ->
    Alcotest.(check string) "escapes" "aA\n\t\\\"z" s
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.failf "parse: %s" e);
  match parse {|{"s":"é"}|} with
  | Ok (Obj [ ("s", Str s) ]) ->
    Alcotest.(check string) "utf8 from \\u" "\xc3\xa9" s
  | _ -> Alcotest.fail "utf8 escape"

let json_rejects () =
  let open Serve.Json in
  List.iter
    (fun s ->
      match parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "{"; "{\"a\":}"; "[1,]"; "tru"; "\"unterminated"; "{} trailing"; "" ]

(* ---- Serve.Protocol ---- *)

let protocol_parse () =
  let open Serve.Protocol in
  (match parse_request {|{"id":"r1","cmd":"analyze","source":"int main(){return 0;}"}|} with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok r ->
    Alcotest.(check string) "id" "r1" r.id;
    Alcotest.(check bool) "cmd" true (r.cmd = Analyze);
    Alcotest.(check int) "scale default" 10 r.scale;
    Alcotest.(check bool) "variant default" true
      (r.variant = Usher.Config.Usher_full));
  (match parse_request {|{"id":"x","cmd":"analyze"}|} with
  | Ok _ -> Alcotest.fail "analyze without source accepted"
  | Error _ -> ());
  (match parse_request {|{"id":"x","cmd":"bench"}|} with
  | Ok _ -> Alcotest.fail "bench without bench accepted"
  | Error _ -> ());
  match parse_request {|{"id":"x","cmd":"run","source":"s","inject":["andersen=crash"]}|} with
  | Ok r -> Alcotest.(check int) "inject parsed" 1 (List.length r.inject)
  | Error e -> Alcotest.failf "inject: %s" e

let protocol_codes () =
  let open Serve.Protocol in
  List.iter
    (fun (s, c) -> Alcotest.(check int) (status_name s) c (code_of_status s))
    [ (Sok, 0); (Serror, 1); (Sdetected, 3); (Sunsound, 4); (Sviolation, 5);
      (Soverloaded, 6); (Squarantined, 7) ];
  List.iter
    (fun c ->
      Alcotest.(check int) "exit-code roundtrip" c
        (code_of_status (status_of_exit_code c)))
    [ 0; 3; 4; 5 ]

let reply_line_parses () =
  let open Serve.Protocol in
  let r =
    reply ~id:"r9" ~output:"line1\nline2\n" ~error:"" ~retries:1
      ~extra:[ ("pong", Serve.Json.Bool true) ] Sok
  in
  match Serve.Json.parse (reply_to_line r) with
  | Error e -> Alcotest.failf "reply line unparseable: %s" e
  | Ok j ->
    Alcotest.(check (option string)) "id" (Some "r9")
      (Option.bind (Serve.Json.member "id" j) Serve.Json.str);
    Alcotest.(check (option string)) "output survives newlines"
      (Some "line1\nline2\n")
      (Option.bind (Serve.Json.member "output" j) Serve.Json.str)

(* ---- Serve.Cache ---- *)

let cache_basics () =
  let c = Serve.Cache.create ~cap:2 in
  let k s = Serve.Cache.key ~cmd:"analyze" ~level:"O0+IM" ~variant:"usher"
      ~engine:"interp" ~knobs_fp:"fp" ~src:s
  in
  Alcotest.(check bool) "miss" true (Serve.Cache.find c (k "a") = None);
  Serve.Cache.store c (k "a") { Serve.Cache.code = 0; output = "A" };
  Serve.Cache.store c (k "a") { Serve.Cache.code = 3; output = "LOSER" };
  (match Serve.Cache.find c (k "a") with
  | Some e -> Alcotest.(check string) "first writer wins" "A" e.Serve.Cache.output
  | None -> Alcotest.fail "hit expected");
  Serve.Cache.store c (k "b") { Serve.Cache.code = 0; output = "B" };
  Serve.Cache.store c (k "c") { Serve.Cache.code = 0; output = "C" };
  Alcotest.(check bool) "fifo evicted oldest" true (Serve.Cache.find c (k "a") = None);
  Alcotest.(check int) "capacity held" 2 (Serve.Cache.size c);
  Alcotest.(check bool) "distinct source, distinct key" true (k "a" <> k "a ")

(* ---- Serve.Admission ---- *)

let admission_watermarks () =
  let open Serve.Admission in
  let t = create { max_queue = 2; max_inflight_ms = 100; default_budget_ms = 40 } in
  (match admit t ~queue_depth:2 ~requested_ms:None with
  | Shed _ -> ()
  | Admit _ -> Alcotest.fail "queue watermark ignored");
  let g1 =
    match admit t ~queue_depth:0 ~requested_ms:(Some 500) with
    | Admit g -> Alcotest.(check int) "ask capped at default" 40 g; g
    | Shed r -> Alcotest.failf "shed: %s" r
  in
  let g2 =
    match admit t ~queue_depth:0 ~requested_ms:(Some 30) with
    | Admit g -> Alcotest.(check int) "small ask granted" 30 g; g
    | Shed r -> Alcotest.failf "shed: %s" r
  in
  (match admit t ~queue_depth:0 ~requested_ms:(Some 40) with
  | Shed _ -> () (* 40+30+40 > 100 *)
  | Admit _ -> Alcotest.fail "in-flight watermark ignored");
  release t g1;
  release t g2;
  match admit t ~queue_depth:0 ~requested_ms:(Some 40) with
  | Admit g -> release t g
  | Shed r -> Alcotest.failf "release leaked budget: %s" r

(* ---- Obs.Metrics window track (satellite) ---- *)

let metrics_window () =
  let c = Obs.Metrics.counter "test.serve.window" in
  let base_total = Obs.Metrics.counter_value c in
  Obs.Metrics.add c 5;
  Obs.Metrics.reset_window ();
  Alcotest.(check int) "window zeroed" 0 (Obs.Metrics.counter_window c);
  Alcotest.(check int) "total survives reset_window" (base_total + 5)
    (Obs.Metrics.counter_value c);
  Obs.Metrics.add c 2;
  Alcotest.(check int) "window counts fresh" 2 (Obs.Metrics.counter_window c);
  Alcotest.(check int) "total keeps accumulating" (base_total + 7)
    (Obs.Metrics.counter_value c);
  let snap track =
    List.assoc_opt "test.serve.window" (Obs.Metrics.snapshot ~track ())
  in
  (match (snap Obs.Metrics.Total, snap Obs.Metrics.Window) with
  | Some (Obs.Metrics.Counter t), Some (Obs.Metrics.Counter w) ->
    Alcotest.(check int) "snapshot total" (base_total + 7) t;
    Alcotest.(check int) "snapshot window" 2 w
  | _ -> Alcotest.fail "counter missing from snapshot");
  let h = Obs.Metrics.histogram "test.serve.window_hist" in
  Obs.Metrics.observe h 100;
  Obs.Metrics.reset_window ();
  Obs.Metrics.observe h 7;
  match
    ( List.assoc_opt "test.serve.window_hist" (Obs.Metrics.snapshot ()),
      List.assoc_opt "test.serve.window_hist"
        (Obs.Metrics.snapshot ~track:Obs.Metrics.Window ()) )
  with
  | ( Some (Obs.Metrics.Histogram { count = ct; sum = st; _ }),
      Some (Obs.Metrics.Histogram { count = cw; sum = sw; _ }) ) ->
    Alcotest.(check int) "hist total count" 2 ct;
    Alcotest.(check int) "hist total sum" 107 st;
    Alcotest.(check int) "hist window count" 1 cw;
    Alcotest.(check int) "hist window sum" 7 sw
  | _ -> Alcotest.fail "histogram missing from snapshot"

(* take_window is an atomic read-and-zero: the value comes back exactly
   once, and the lifetime total is untouched — the stats path uses this
   so increments racing a snapshot land in the next window, never lost. *)
let metrics_take_window () =
  let c = Obs.Metrics.counter "test.serve.take_window" in
  let base_total = Obs.Metrics.counter_value c in
  Obs.Metrics.add c 3;
  Alcotest.(check int) "take returns the window" 3
    (Obs.Metrics.counter_take_window c);
  Alcotest.(check int) "window drained" 0 (Obs.Metrics.counter_window c);
  Alcotest.(check int) "second take is empty" 0
    (Obs.Metrics.counter_take_window c);
  Alcotest.(check int) "total untouched" (base_total + 3)
    (Obs.Metrics.counter_value c);
  Obs.Metrics.incr c;
  Alcotest.(check int) "post-take increments accumulate" 1
    (Obs.Metrics.counter_window c)

(* ---- quarantine.list concurrent writers (satellite) ---- *)

let quarantine_hammer () =
  with_tmpdir @@ fun dir ->
  let domains = 4 and per = 25 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              ignore
                (Audit.Quarantine.add dir
                   [
                     {
                       Audit.Quarantine.qfunc = Printf.sprintf "fn_%d_%d" d i;
                       incident = Printf.sprintf "inc-%d-%d" d i;
                     };
                   ])
            done))
  in
  List.iter Domain.join workers;
  let entries = Audit.Quarantine.load dir in
  Alcotest.(check int) "no entry lost under 4 concurrent writers"
    (domains * per) (List.length entries);
  let uniq =
    List.sort_uniq compare
      (List.map (fun e -> e.Audit.Quarantine.qfunc) entries)
  in
  Alcotest.(check int) "no duplicates" (domains * per) (List.length uniq);
  (* no stray temp files left behind *)
  let strays =
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun f ->
           not
             (List.mem f [ "quarantine.list"; "quarantine.lock" ]))
  in
  Alcotest.(check (list string)) "only the list and its lock remain" [] strays

(* ---- the in-process server harness ---- *)

let src_clean =
  "int main() {\n  int y;\n  y = 1;\n  print(y);\n  return 0;\n}\n"

let src_undef =
  "int main() {\n  int x;\n  print(x);\n  return 0;\n}\n"

let mk_server ?(jobs = 2) ?(max_queue = 32) ?(max_inflight_ms = 1_000_000)
    ?(retries = 2) ?(cache_cap = 64) ?(drain_ms = 2_000) (dir : string) :
    Serve.Server.t * (string -> unit) * (unit -> string list) =
  let cfg =
    {
      Serve.Server.default_config with
      jobs;
      retries;
      cache_cap;
      drain_ms;
      incident_dir = dir;
      admission =
        { Serve.Admission.max_queue; max_inflight_ms; default_budget_ms = 10_000 };
    }
  in
  let t = Serve.Server.create cfg in
  let mu = Mutex.create () in
  let lines = ref [] in
  let out line = Mutex.protect mu (fun () -> lines := line :: !lines) in
  (t, out, fun () -> Mutex.protect mu (fun () -> List.rev !lines))

let req_json ?(extra = "") ~id ~cmd ~source () =
  Printf.sprintf {|{"id":%S,"cmd":%S,"source":%s%s}|} id cmd
    (Serve.Json.to_line (Serve.Json.Str source))
    extra

let reply_field line k =
  match Serve.Json.parse line with
  | Ok j -> Option.bind (Serve.Json.member k j) Serve.Json.str
  | Error _ -> None

let reply_id line = Option.value ~default:"?" (reply_field line "id")
let reply_status line = Option.value ~default:"?" (reply_field line "status")

(* Crash isolation, end to end: among clean requests, one seeded worker
   crash (past the retry cap) and one over-budget request. Every clean
   request must come back with output byte-identical to a direct handler
   render; the crash must come back quarantined with an incident on
   disk; the server must stay serviceable afterwards. *)
let server_crash_isolation () =
  with_tmpdir @@ fun dir ->
  let t, out, collected = mk_server ~jobs:2 dir in
  let n = 8 in
  let ids = List.init n (fun i -> Printf.sprintf "r%d" i) in
  List.iteri
    (fun i id ->
      let line =
        if i = 3 then
          req_json ~id ~cmd:"run" ~source:src_clean
            ~extra:{|,"crash_worker":99|} ()
        else if i = 5 then
          req_json ~id ~cmd:"analyze" ~source:src_clean
            ~extra:{|,"budget_ms":1|} ()
        else
          req_json ~id ~cmd:(if i mod 2 = 0 then "analyze" else "run")
            ~source:(if i = 1 then src_undef else src_clean)
            ()
      in
      Serve.Server.handle_line t ~out line)
    ids;
  Serve.Server.drain t;
  let replies = collected () in
  Alcotest.(check int) "every request answered exactly once" n
    (List.length replies);
  let by_id id = List.find (fun l -> reply_id l = id) replies in
  Alcotest.(check string) "seeded crash quarantined" "quarantined"
    (reply_status (by_id "r3"));
  let incidents, corrupt = Audit.Incident.load_dir dir in
  Alcotest.(check (list (pair string string))) "no corrupt artifacts" [] corrupt;
  Alcotest.(check bool) "worker-crash incident filed" true
    (List.exists
       (fun (i : Audit.Incident.t) -> i.kind = Audit.Incident.Worker_crash)
       incidents);
  (* the over-budget request still gets a structured reply *)
  let r5 = by_id "r5" in
  Alcotest.(check bool) "over-budget reply is ok or degraded, not lost" true
    (List.mem (reply_status r5) [ "ok"; "detected" ]);
  (* byte-identity of every clean reply against a direct render *)
  let knobs = Usher.Budget.admit_ms Usher.Config.default_knobs 10_000 in
  List.iteri
    (fun i id ->
      if i <> 3 && i <> 5 then begin
        let b = Buffer.create 256 in
        let src = if i = 1 then src_undef else src_clean in
        let code =
          if i mod 2 = 0 then
            Serve.Handlers.analyze ~knobs ~level:Optim.Pipeline.O0_IM
              ~variant:Usher.Config.Usher_full b src
          else
            Serve.Handlers.run ~knobs ~level:Optim.Pipeline.O0_IM
              ~engine:Vm.Engine.Interp
              ~variant:Usher.Config.Usher_full b src
        in
        let line = by_id id in
        Alcotest.(check (option string))
          (id ^ " output byte-identical to one-shot")
          (Some (Buffer.contents b))
          (reply_field line "output");
        match Serve.Json.parse line with
        | Ok j ->
          Alcotest.(check (option int)) (id ^ " code matches") (Some code)
            (Option.bind (Serve.Json.member "code" j) Serve.Json.int_)
        | Error e -> Alcotest.failf "reply unparseable: %s" e
      end)
    ids

(* Retry-then-recover: a request that crashes its worker fewer times
   than the retry cap succeeds, reporting its retries; nothing is
   quarantined. *)
let server_retry_recovers () =
  with_tmpdir @@ fun dir ->
  let t, out, collected = mk_server ~jobs:1 ~retries:2 dir in
  Serve.Server.handle_line t ~out
    (req_json ~id:"r" ~cmd:"run" ~source:src_clean ~extra:{|,"crash_worker":2|} ());
  Serve.Server.drain t;
  match collected () with
  | [ line ] ->
    Alcotest.(check string) "recovered" "ok" (reply_status line);
    (match Serve.Json.parse line with
    | Ok j ->
      Alcotest.(check (option int)) "two retries reported" (Some 2)
        (Option.bind (Serve.Json.member "retries" j) Serve.Json.int_)
    | Error e -> Alcotest.failf "bad reply: %s" e);
    let incidents, _ = Audit.Incident.load_dir dir in
    Alcotest.(check int) "no incident for a recovered request" 0
      (List.length incidents)
  | ls -> Alcotest.failf "expected 1 reply, got %d" (List.length ls)

(* Structured failures skip the retry loop entirely. *)
let server_error_no_retry () =
  with_tmpdir @@ fun dir ->
  let t, out, collected = mk_server ~jobs:1 dir in
  Serve.Server.handle_line t ~out
    (req_json ~id:"bad" ~cmd:"analyze" ~source:"int main( {" ());
  Serve.Server.drain t;
  match collected () with
  | [ line ] ->
    Alcotest.(check string) "structured error" "error" (reply_status line);
    (match Serve.Json.parse line with
    | Ok j ->
      Alcotest.(check (option int)) "no retries burned" (Some 0)
        (Option.bind (Serve.Json.member "retries" j) Serve.Json.int_)
    | Error e -> Alcotest.failf "bad reply: %s" e)
  | ls -> Alcotest.failf "expected 1 reply, got %d" (List.length ls)

(* Served replies are cached: same request twice, second is a hit with
   identical bytes. *)
let server_cache_hit () =
  with_tmpdir @@ fun dir ->
  let t, out, collected = mk_server ~jobs:1 dir in
  Serve.Server.handle_line t ~out (req_json ~id:"c1" ~cmd:"analyze" ~source:src_clean ());
  Serve.Server.handle_line t ~out (req_json ~id:"c2" ~cmd:"analyze" ~source:src_clean ());
  Serve.Server.drain t;
  match collected () with
  | [ l1; l2 ] ->
    let cached l =
      match Serve.Json.parse l with
      | Ok j -> Option.bind (Serve.Json.member "cached" j) Serve.Json.bool_
      | Error _ -> None
    in
    Alcotest.(check (option bool)) "first is a miss" (Some false) (cached l1);
    Alcotest.(check (option bool)) "second is a hit" (Some true) (cached l2);
    Alcotest.(check (option string)) "identical bytes"
      (reply_field l1 "output") (Some (Option.value ~default:"?" (reply_field l2 "output")))
  | ls -> Alcotest.failf "expected 2 replies, got %d" (List.length ls)

(* Unknown request fields are ignored. "summaries" and "cache" belonged
   to a removed resolver: a request that still carries them gets the
   plain request's reply, and the daemon never creates the directory it
   names. Replies come from fresh servers (no reply-cache hit) and are
   compared with elapsed_ms masked. *)
let server_ignores_unknown_fields () =
  with_tmpdir @@ fun dir ->
  let nope = Filename.concat dir "nope" in
  let reply extra =
    let t, out, collected = mk_server ~jobs:1 dir in
    Serve.Server.handle_line t ~out
      (req_json ~id:"u" ~cmd:"analyze" ~source:src_undef ~extra ());
    Serve.Server.drain t;
    match collected () with
    | [ line ] -> (
      match Serve.Json.parse line with
      | Ok (Serve.Json.Obj fs) ->
        Serve.Json.to_line
          (Serve.Json.Obj
             (List.map
                (fun (k, v) ->
                  if k = "elapsed_ms" then (k, Serve.Json.Num 0.) else (k, v))
                fs))
      | _ -> Alcotest.failf "bad reply: %s" line)
    | ls -> Alcotest.failf "expected 1 reply, got %d" (List.length ls)
  in
  let plain = reply "" in
  let legacy =
    reply
      (Printf.sprintf {|,"summaries":true,"cache":%s|}
         (Serve.Json.to_line (Serve.Json.Str nope)))
  in
  Alcotest.(check bool) "no client-named directory created" false
    (Sys.file_exists nope);
  Alcotest.(check string) "reply byte-identical to the plain request" plain
    legacy

(* An unknown benchmark is a deterministic client error: no retries
   burned, no incident filed — and only [bench] maps to it (a stray
   [Not_found] elsewhere takes the crash/retry path instead). *)
let server_unknown_bench () =
  with_tmpdir @@ fun dir ->
  let t, out, collected = mk_server ~jobs:1 dir in
  Serve.Server.handle_line t ~out {|{"id":"b0","cmd":"bench","bench":"999.nope"}|};
  Serve.Server.drain t;
  match collected () with
  | [ line ] ->
    Alcotest.(check string) "deterministic error" "error" (reply_status line);
    (match Serve.Json.parse line with
    | Ok j ->
      Alcotest.(check (option int)) "no retries burned" (Some 0)
        (Option.bind (Serve.Json.member "retries" j) Serve.Json.int_);
      Alcotest.(check bool) "names the benchmark" true
        (match reply_field line "error" with
        | Some e ->
          let needle = "unknown benchmark" in
          let n = String.length e and m = String.length needle in
          let rec at i = i + m <= n && (String.sub e i m = needle || at (i + 1)) in
          at 0
        | None -> false)
    | Error e -> Alcotest.failf "bad reply: %s" e);
    let incidents, _ = Audit.Incident.load_dir dir in
    Alcotest.(check int) "no incident for a client error" 0
      (List.length incidents)
  | ls -> Alcotest.failf "expected 1 reply, got %d" (List.length ls)

(* A final request line without a trailing newline is completed by EOF:
   `printf '{"cmd":"ping"}' | usherc serve` must still get its reply. *)
let serve_fd_eof_partial_line () =
  with_tmpdir @@ fun dir ->
  let t, out, collected = mk_server ~jobs:1 dir in
  let r, w = Unix.pipe () in
  let req = {|{"id":"p1","cmd":"ping"}|} in
  ignore (Unix.write_substring w req 0 (String.length req));
  Unix.close w;
  Serve.Server.serve_fd t ~out r;
  Unix.close r;
  Serve.Server.drain t;
  match collected () with
  | [ line ] ->
    Alcotest.(check string) "partial line answered" "p1" (reply_id line);
    Alcotest.(check string) "pong" "ok" (reply_status line)
  | ls -> Alcotest.failf "expected 1 reply, got %d" (List.length ls)

(* Socket-mode drain delivers in-flight replies: the connection fd must
   survive serve_socket's return (intake stopped) until the worker has
   written the admitted reply — only then does it close. Regression for
   the fd-close-before-reply (and fd-reuse) race. *)
let serve_socket_drain_delivers () =
  with_tmpdir @@ fun dir ->
  let t, _, _ = mk_server ~jobs:1 dir in
  let path = Filename.concat dir "sock" in
  let srv = Domain.spawn (fun () -> Serve.Server.serve_socket t path) in
  let rec await_file n =
    if not (Sys.file_exists path) then
      if n = 0 then Alcotest.fail "socket never appeared"
      else (Unix.sleepf 0.01; await_file (n - 1))
  in
  await_file 500;
  let c = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect c (Unix.ADDR_UNIX path);
  let req =
    req_json ~id:"sd1" ~cmd:"run" ~source:src_clean
      ~extra:{|,"sleep_ms":300|} ()
    ^ "\n"
  in
  ignore (Unix.write_substring c req 0 (String.length req));
  (* wait until the request is admitted, then pull the plug *)
  let pool = t.Serve.Server.pool in
  let rec await_inflight n =
    if Usher.Pool.queued pool + Usher.Pool.in_flight pool = 0 then
      if n = 0 then Alcotest.fail "request never admitted"
      else (Unix.sleepf 0.01; await_inflight (n - 1))
  in
  await_inflight 500;
  Serve.Server.begin_drain t;
  Domain.join srv;
  Serve.Server.drain t;
  (* after drain the reply is on the wire and the fd closed: read to EOF *)
  let b = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec slurp () =
    match Unix.read c chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      slurp ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> slurp ()
  in
  slurp ();
  Unix.close c;
  match String.split_on_char '\n' (String.trim (Buffer.contents b)) with
  | [ line ] ->
    Alcotest.(check string) "in-flight reply delivered through drain" "sd1"
      (reply_id line);
    Alcotest.(check string) "and it is the real result" "ok"
      (reply_status line)
  | ls -> Alcotest.failf "expected exactly 1 reply line, got %d" (List.length ls)

(* ---- qcheck properties ---- *)

(* (a) A worker raising mid-request never loses or reorders other
   requests' replies: for a random mix of crashing and clean requests,
   every id is answered exactly once, crashers as quarantined, clean
   ones as ok. (Reply *order* across concurrent workers is unspecified;
   the per-request contract is exactly-once.) *)
let prop_no_lost_replies =
  let arb =
    QCheck.make
      ~print:(fun bs -> String.concat "" (List.map (fun b -> if b then "X" else ".") bs))
      QCheck.Gen.(list_size (int_range 1 12) bool)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:15
       ~name:"server: crashing workers never lose or duplicate replies" arb
       (fun crashes ->
         with_tmpdir @@ fun dir ->
         let t, out, collected = mk_server ~jobs:3 ~retries:0 dir in
         List.iteri
           (fun i crash ->
             Serve.Server.handle_line t ~out
               (req_json
                  ~id:(Printf.sprintf "q%d" i)
                  ~cmd:"run" ~source:src_clean
                  ~extra:(if crash then {|,"crash_worker":99|} else "")
                  ()))
           crashes;
         Serve.Server.drain t;
         let replies = collected () in
         List.length replies = List.length crashes
         && List.for_all
              (fun (i, crash) ->
                let id = Printf.sprintf "q%d" i in
                let matching =
                  List.filter (fun l -> reply_id l = id) replies
                in
                List.length matching = 1
                && reply_status (List.hd matching)
                   = if crash then "quarantined" else "ok")
              (List.mapi (fun i c -> (i, c)) crashes)))

(* (b) A saturated queue always sheds with an overloaded reply, and the
   shed happens synchronously on the intake path — within the admission
   deadline (we allow 250ms; the path is a mutex-protected list append,
   so this is generous by orders of magnitude). *)
let prop_shed_within_deadline =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 6) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:8
       ~name:"server: saturated queue sheds overloaded within the deadline" arb
       (fun burst ->
         with_tmpdir @@ fun dir ->
         let t, out, collected = mk_server ~jobs:1 ~max_queue:1 dir in
         (* occupy the worker, then fill the queue watermark *)
         let t_hold = Obs.Clock.now_s () in
         Serve.Server.handle_line t ~out
           (req_json ~id:"hold" ~cmd:"run" ~source:src_clean
              ~extra:{|,"sleep_ms":300|} ());
         Serve.Server.handle_line t ~out
           (req_json ~id:"q0" ~cmd:"run" ~source:src_clean
              ~extra:{|,"sleep_ms":50|} ());
         let ok = ref true in
         for i = 1 to burst do
           (* only assert while the 300ms hold provably still occupies the
              worker (so the queue slot is provably still full) — on a
              loaded box a long burst can outlive the hold, after which a
              request legitimately queues instead of shedding *)
           if Obs.Clock.now_s () -. t_hold < 0.25 then begin
             let before = List.length (collected ()) in
             let t0 = Obs.Clock.now_s () in
             Serve.Server.handle_line t ~out
               (req_json ~id:(Printf.sprintf "s%d" i) ~cmd:"run"
                  ~source:src_clean ());
             let dt = Obs.Clock.now_s () -. t0 in
             let after = collected () in
             (* the shed reply is already there when handle_line returns *)
             let shed =
               List.filter
                 (fun l ->
                   reply_id l = Printf.sprintf "s%d" i
                   && reply_status l = "overloaded")
                 after
             in
             if
               not
                 (List.length after = before + 1
                 && List.length shed = 1 && dt < 0.25)
             then ok := false
           end
         done;
         Serve.Server.drain t;
         !ok))

(* (c) kill -9 mid-request leaves no corrupt artifacts: simulate the
   torn state (a stranded atomic-write temp alongside valid artifacts),
   then restart — the loader must see only the valid artifacts and the
   server sweep must remove the stray temp. *)
let prop_kill9_artifacts =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1000) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:15
       ~name:"server: stranded kill -9 temps never corrupt artifacts on restart"
       arb
       (fun seed ->
         with_tmpdir @@ fun dir ->
         (* a valid incident, as a crashed server would have completed *)
         let inc =
           Audit.Incident.make ~kind:Audit.Incident.Worker_crash
             ~variant:"run" ~seed ~mutation:"m" ~functions:[] ~labels:[]
             ~knobs:"k" ~source:src_clean ()
         in
         let _path = Audit.Incident.save ~dir inc in
         ignore
           (Audit.Quarantine.add dir
              [ { Audit.Quarantine.qfunc = "f"; incident = inc.id } ]);
         (* the torn write: a temp the dying process never renamed *)
         let stray1 =
           Filename.concat dir
             (Printf.sprintf "incident-dead-%d.txt.tmp.999.0" seed)
         in
         let stray2 = Filename.concat dir "quarantine.list.tmp.999.1" in
         List.iter
           (fun p ->
             let oc = open_out p in
             output_string oc "torn half-write {{{";
             close_out oc)
           [ stray1; stray2 ];
         (* restart: loaders must not see the strays as artifacts *)
         let incidents, corrupt = Audit.Incident.load_dir dir in
         let entries = Audit.Quarantine.load dir in
         let before_ok =
           corrupt = []
           && List.exists (fun (i : Audit.Incident.t) -> i.id = inc.id) incidents
           && List.exists (fun e -> e.Audit.Quarantine.qfunc = "f") entries
         in
         (* the server startup sweep clears the strays *)
         let t =
           Serve.Server.create
             { Serve.Server.default_config with jobs = 1; incident_dir = dir }
         in
         Serve.Server.drain t;
         before_ok
         && (not (Sys.file_exists stray1))
         && (not (Sys.file_exists stray2))
         && fst (Audit.Incident.load_dir dir) <> []
         && Audit.Quarantine.load dir <> []))

(* ---- pool-level property: submission order within one worker ---- *)

let pool_isolation () =
  let pool = Usher.Pool.create ~name:"test" ~jobs:2 () in
  let done_n = Atomic.make 0 in
  for i = 0 to 19 do
    ignore
      (Usher.Pool.submit pool (fun () ->
           if i mod 3 = 0 then failwith "boom"
           else Atomic.incr done_n))
  done;
  Usher.Pool.shutdown pool;
  Alcotest.(check int) "non-crashing tasks all ran" 13 (Atomic.get done_n);
  Alcotest.(check bool) "no further admission after shutdown" false
    (Usher.Pool.submit pool (fun () -> ()))

let suites =
  [
    ( "serve.json",
      [
        Alcotest.test_case "roundtrip" `Quick json_roundtrip;
        Alcotest.test_case "escapes" `Quick json_escapes;
        Alcotest.test_case "rejects malformed" `Quick json_rejects;
      ] );
    ( "serve.protocol",
      [
        Alcotest.test_case "request parsing" `Quick protocol_parse;
        Alcotest.test_case "status codes" `Quick protocol_codes;
        Alcotest.test_case "reply line parses" `Quick reply_line_parses;
      ] );
    ( "serve.cache",
      [ Alcotest.test_case "fifo + first-writer-wins" `Quick cache_basics ] );
    ( "serve.admission",
      [ Alcotest.test_case "watermarks and release" `Quick admission_watermarks ] );
    ( "serve.metrics",
      [
        Alcotest.test_case "window track resets, total survives" `Quick
          metrics_window;
        Alcotest.test_case "take_window drains atomically" `Quick
          metrics_take_window;
      ] );
    ( "serve.quarantine",
      [ Alcotest.test_case "4-domain writer hammer" `Quick quarantine_hammer ] );
    ( "serve.pool",
      [ Alcotest.test_case "task exceptions isolated" `Quick pool_isolation ] );
    ( "serve.server",
      [
        Alcotest.test_case "crash isolation end to end" `Quick
          server_crash_isolation;
        Alcotest.test_case "retry recovers below the cap" `Quick
          server_retry_recovers;
        Alcotest.test_case "structured errors skip retries" `Quick
          server_error_no_retry;
        Alcotest.test_case "reply cache hit is byte-identical" `Quick
          server_cache_hit;
        Alcotest.test_case "unknown bench is a client error" `Quick
          server_unknown_bench;
        Alcotest.test_case "unknown request fields are ignored" `Quick
          server_ignores_unknown_fields;
        Alcotest.test_case "EOF completes an unterminated line" `Quick
          serve_fd_eof_partial_line;
        Alcotest.test_case "socket drain delivers in-flight replies" `Quick
          serve_socket_drain_delivers;
      ] );
    ( "serve.properties",
      [ prop_no_lost_replies; prop_shed_within_deadline; prop_kill9_artifacts ]
    );
  ]
