(** In-memory host-clock span log for the benchmark's traced runs.

    Spans are recorded by the benchmark around its own calls into each
    layer of the program (never inside the program).  Each span has a
    name, a start, an end, the span that caused it (its parent) and the
    message id of the update it works for, so the spans of one update
    share an identifier.  Nothing is written while a run is measured;
    {!write_jsonl} dumps the log at the end. *)

type span = {
  id : int;  (** unique within the log, > 0 *)
  parent : int;  (** enclosing span id, 0 for a root span *)
  name : string;  (** operation, e.g. ["vm.sweep"] *)
  mutable msg : int;  (** message id of the update worked on, -1 if none *)
  t0 : int;  (** host nanoseconds *)
  mutable t1 : int;  (** host nanoseconds; [= t0] while open *)
  w0 : float;  (** allocated words when the span opened *)
  mutable w1 : float;  (** allocated words when the span closed *)
}

type t

val host_ns : unit -> int
(** The monotonic host clock, in nanoseconds. *)

val create : ?now:(unit -> int) -> ?words:(unit -> float) -> unit -> t
(** [now] (default: the monotonic host clock, in ns) and [words] (default:
    words allocated by this domain so far, minor + major − promoted) are
    injectable so tests can drive the arithmetic with a fake clock. *)

val with_span : t -> ?msg:int -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f] inside a span named [name], a child of
    the innermost open span.  The span is closed even if [f] raises. *)

val set_msg : t -> int -> unit
(** Tag the innermost open span with a message id (for spans that learn
    which update they serve only after they opened). *)

val mark : t -> int
(** The id the next span will get. *)

val drop_from : t -> int -> unit
(** Forget every closed span with an id at or above a {!mark} (the spans
    of an attempt whose numbers must not be published). *)

val spans : t -> span list
(** Every closed span, in opening order. *)

val self_ns : span list -> (int, int) Hashtbl.t
(** Span id → self time: the span's duration minus the durations of its
    direct children (children are strictly nested inside their parent). *)

(** Aggregate of every span with one name. *)
type op = {
  op : string;
  calls : int;
  self_s : float;  (** Σ self time, host seconds *)
  ns_p50 : float;  (** median span duration, host ns *)
  ns_p99 : float;  (** 99th-percentile span duration, host ns *)
  words_per_call : float;  (** mean words allocated inside the span *)
}

val summarize : span list -> op list
(** One {!op} per span name, sorted by name. *)

val coverage : span list -> wall_ns:int -> float
(** Share of [wall_ns] covered by root spans (Σ root durations / wall). *)

val write_jsonl : string -> span list -> unit
(** One JSON object per span per line. *)
