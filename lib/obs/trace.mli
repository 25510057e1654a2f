(** Span tracer emitting Chrome trace_event JSON (open the file in
    chrome://tracing or https://ui.perfetto.dev).

    Off by default and observationally inert when off: every entry point
    checks [enabled] first and records/allocates nothing when it is
    false. Recording is per-domain (lock-free after the first event on a
    domain); merge happens in [events]/[write]. *)

type arg = Str of string | Int of int | Float of float

type event = {
  ph : char;  (** 'B' begin, 'E' end, 'i' instant, 'C' counter *)
  name : string;
  cat : string;
  ts_ns : int;  (** monotonic (Obs.Clock) nanoseconds *)
  tid : int;  (** recording domain id *)
  args : (string * arg) list;
}

val enabled : unit -> bool
val start : unit -> unit
val stop : unit -> unit

val with_span :
  ?cat:string ->
  ?args:(string * arg) list ->
  ?end_args:('a -> (string * arg) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span name f] runs [f] inside a begin/end span pair (closed even
    if [f] raises; the exception is re-raised with its backtrace). Span
    begins periodically attach a GC counter sample ([Gc.quick_stat]).
    [end_args] computes args from [f]'s result for the end event (viewers
    merge them into the span's args). When tracing is disabled this is
    exactly [f ()]. *)

val begin_span : ?cat:string -> ?args:(string * arg) list -> string -> unit
val end_span : ?cat:string -> ?args:(string * arg) list -> string -> unit

val instant : ?cat:string -> ?args:(string * arg) list -> string -> unit
(** A point-in-time event (degradations, quarantines, incidents). *)

val counter : ?cat:string -> string -> (string * arg) list -> unit
(** A 'C' counter sample (plotted as a stacked series by the viewers). *)

val events : unit -> event list
(** All recorded events from every domain, sorted by timestamp. Call
    after worker domains have joined. *)

val clear : unit -> unit
(** Drop all recorded events (keeps [enabled] as-is). *)

val to_json_string : unit -> string
(** The Chrome trace JSON document for the current event log. *)

val write : string -> unit
(** Write [to_json_string] to a file. *)
