(* Span tracer emitting Chrome trace_event JSON (chrome://tracing or
   https://ui.perfetto.dev).

   Design constraints, in order:

   1. Observationally inert when disabled. [enabled] is a single immutable
      boolean read; every recording entry point checks it first and does
      no allocation when it is false. Tracing is expected to be switched
      on once at process start (before worker domains spawn) by
      `--trace FILE`.

   2. Domain-safe without contention. Each domain appends events to its
      own buffer (Domain.DLS); the registry of buffers is touched under a
      mutex only on first use per domain. [events]/[write] merge-sort the
      buffers — callers do that after worker joins.

   3. Zero dependencies: the JSON emitter is hand-rolled (as in
      bench/main.ml, the schema is too small to need a library).

   Span begin/end are recorded as Chrome 'B'/'E' phases with the domain id
   as `tid`, so nesting renders as a flame graph per domain. Degradation /
   quarantine events surface as 'i' (instant) events; counters (GC samples,
   solver work) as 'C' events. *)

type arg = Str of string | Int of int | Float of float

type event = {
  ph : char; (* 'B' begin, 'E' end, 'i' instant, 'C' counter *)
  name : string;
  cat : string;
  ts_ns : int;
  tid : int;
  args : (string * arg) list;
}

let enabled_ = ref false
let[@inline] enabled () = !enabled_
let start () = enabled_ := true
let stop () = enabled_ := false

type tbuf = { tid : int; mutable evs : event list; mutable nspans : int }

let mu = Mutex.create ()
let bufs : tbuf list ref = ref []

let dls : tbuf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b = { tid = (Domain.self () :> int); evs = []; nspans = 0 } in
      Mutex.protect mu (fun () -> bufs := b :: !bufs);
      b)

let record ?(cat = "usher") ?(args = []) ph name =
  let b = Domain.DLS.get dls in
  b.evs <- { ph; name; cat; ts_ns = Clock.now_ns (); tid = b.tid; args } :: b.evs

(* Heap/GC sampling: a 'C' (counter) event from Gc.quick_stat, attached to
   span begins, amortized so that function-grained spans do not turn the
   trace into a GC log. *)
let gc_sample_mask = 15

let gc_args () =
  let s = Gc.quick_stat () in
  [
    ("heap_words", Int s.Gc.heap_words);
    ("top_heap_words", Int s.Gc.top_heap_words);
    ("minor_collections", Int s.Gc.minor_collections);
    ("major_collections", Int s.Gc.major_collections);
  ]

let begin_span ?cat ?args name =
  if !enabled_ then begin
    let b = Domain.DLS.get dls in
    if b.nspans land gc_sample_mask = 0 then record ~cat:"gc" ~args:(gc_args ()) 'C' "gc";
    b.nspans <- b.nspans + 1;
    record ?cat ?args 'B' name
  end

let end_span ?cat ?args name = if !enabled_ then record ?cat ?args 'E' name

let with_span ?cat ?args ?end_args name f =
  if not !enabled_ then f ()
  else begin
    begin_span ?cat ?args name;
    match f () with
    | r ->
      end_span ?cat ?args:(Option.map (fun g -> g r) end_args) name;
      r
    | exception e ->
      (* The span must close even on a fault (the pipeline degrades rather
         than unwinding past phase guards, but be safe); re-raise with the
         original backtrace. *)
      let bt = Printexc.get_raw_backtrace () in
      end_span ?cat name;
      Printexc.raise_with_backtrace e bt
  end

let instant ?cat ?args name = if !enabled_ then record ?cat ?args 'i' name
let counter ?cat name args = if !enabled_ then record ?cat ~args 'C' name

let events () : event list =
  let bs = Mutex.protect mu (fun () -> !bufs) in
  List.concat_map (fun b -> b.evs) bs
  |> List.sort (fun a b -> compare (a.ts_ns, a.tid) (b.ts_ns, b.tid))

let clear () =
  let bs = Mutex.protect mu (fun () -> !bufs) in
  List.iter
    (fun b ->
      b.evs <- [];
      b.nspans <- 0)
    bs

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON emission                                    *)
(* ------------------------------------------------------------------ *)

let add_json_string b s =
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

let add_arg b = function
  | Str s -> add_json_string b s
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
    Buffer.add_string b (if Float.is_finite f then Printf.sprintf "%.6g" f else "0")

let add_event b (e : event) =
  Buffer.add_string b "{\"name\":";
  add_json_string b e.name;
  Buffer.add_string b ",\"cat\":";
  add_json_string b e.cat;
  Buffer.add_string b ",\"ph\":";
  add_json_string b (String.make 1 e.ph);
  (* Chrome expects microseconds; keep nanosecond precision fractionally. *)
  Buffer.add_string b
    (Printf.sprintf ",\"ts\":%.3f" (float_of_int e.ts_ns /. 1000.0));
  Buffer.add_string b (Printf.sprintf ",\"pid\":1,\"tid\":%d" e.tid);
  if e.ph = 'i' then Buffer.add_string b ",\"s\":\"t\"";
  (match e.args with
  | [] -> ()
  | args ->
    Buffer.add_string b ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add_json_string b k;
        Buffer.add_char b ':';
        add_arg b v)
      args;
    Buffer.add_char b '}');
  Buffer.add_char b '}'

let to_json_string () : string =
  let evs = events () in
  let b = Buffer.create (4096 + (128 * List.length evs)) in
  Buffer.add_string b "{\"traceEvents\":[\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b "  ";
      add_event b e)
    evs;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\"}\n";
  Buffer.contents b

let write (path : string) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_json_string ()))
