(** Per-update causal lineage: one record per source update, keyed by
    [(source, seq)] at commit and by UMQ message id from admission
    onward.  Charging events tile the commit-to-terminal interval into
    named segments (channel / hold / queue / barrier / probe / compute /
    stall / abort) via an advancing cursor, so the segment sums equal the
    elapsed time by construction.  {!disabled} is a structural no-op —
    lineage-off runs are byte-identical. *)

type segment =
  | Channel  (** commit → packet arrival at the warehouse *)
  | Hold  (** sequencer held-for-gap wait *)
  | Queue  (** admission → dispatch (or re-dispatch after abort) *)
  | Barrier  (** dispatched from a cross-shard barrier drain *)
  | Probe  (** source round-trips during maintenance *)
  | Compute  (** maintenance work that is not a probe *)
  | Stall  (** outage stall while dispatched *)
  | Abort  (** work sunk into an aborted maintenance step *)

val all_segments : segment list
val segment_name : segment -> string

type terminal = Applied | Irrelevant | Dropped_undefined

val terminal_name : terminal -> string

type event = {
  at : float;
  kind : string;
  seg : segment option;
  charged : float;
  detail : string;
}

type record = {
  source : string;
  seq : int;
  sc : bool;
  mutable msg_id : int;  (** -1 until the sequencer admits it *)
  commit_at : float;
  mutable cursor : float;
  mutable revents : event list;
  segs : float array;
  mutable held : bool;
  mutable term : terminal option;
  mutable term_at : float;
  mutable parent : int;  (** causal parent msg id (batch merge), -1 *)
}

type t

val create : ?enabled:bool -> ?metrics:Metrics.t -> unit -> t
(** [metrics] receives [lineage.*] counters and [lineage.<segment>_s]
    histograms as records reach their terminal state. *)

val disabled : t
val enabled : t -> bool
val clear : t -> unit

val detailf : t -> ('a, Format.formatter, unit, string) format4 -> 'a
(** Format a [~detail] string.  On a disabled recorder it returns [""]
    and formats nothing: no [%a] printer runs. *)

(** {1 Recording} *)

val commit :
  t -> source:string -> seq:int -> time:float -> sc:bool -> detail:string ->
  unit
(** A source transaction committed: open the record, start the clock. *)

val sent :
  t -> source:string -> seq:int -> time:float -> transmissions:int ->
  duplicated:bool -> arrival:float -> unit
(** The channel's send report: retransmissions after loss, in-flight
    duplication, final arrival time. *)

val arrive : t -> source:string -> seq:int -> time:float -> unit
(** Packet reached the warehouse — charges the [Channel] segment. *)

val held : t -> source:string -> seq:int -> time:float -> unit
(** The exactly-once sequencer is holding the packet for a gap. *)

val dedup : t -> source:string -> seq:int -> time:float -> unit
(** A duplicate delivery of an already-sequenced packet was discarded. *)

val admit : t -> source:string -> seq:int -> time:float -> msg_id:int -> unit
(** The sequencer admitted the packet into the UMQ as [msg_id]; charges
    the [Hold] segment when the packet had been held. *)

val dispatch :
  t -> ids:int list -> time:float -> ?seg:segment -> detail:string -> unit ->
  unit
(** The scheduler picked the entry holding [ids] for maintenance —
    charges [Queue] (default) or [Barrier] per update. *)

val note : t -> ids:int list -> time:float -> kind:string -> detail:string -> unit
(** A pure (non-charging) event on each id's record. *)

val stall : t -> ids:int list -> time:float -> detail:string -> unit
(** An outage stalled the dispatched entry — charges [Stall]. *)

val abort : t -> ids:int list -> time:float -> detail:string -> unit
(** The maintenance step aborted — charges [Abort]; [detail] carries the
    provenance (aborting SC, believed schema). *)

val edge : t -> dep_ids:int list -> time:float -> detail:string -> unit
(** Forensics: a detected CD/SD edge, recorded on the dependent ids. *)

val merged : t -> ids:int list -> time:float -> detail:string -> unit
(** Forensics: a cycle merge or [Merge_all] collapse; members gain a
    causal parent link to the batch's smallest id. *)

(** {1 Ambient probe scope} *)

val set_context : t -> int -> unit
(** Switch the ambient context (same per-task integer as the span
    recorder's). *)

val set_scope : t -> int list -> unit
(** Register the ids whose maintenance is running in the current
    context; [\[\]] clears.  Probe charges go to the active scope. *)

val note_scope : t -> time:float -> kind:string -> detail:string -> unit
(** A pure event on each record in the active ambient scope — used by
    subsystems (e.g. the self-maintenance tier) that know what happened
    but not which update is being maintained. *)

val probe_begin : t -> time:float -> unit
(** Charge [Compute] up to the probe's start for the scoped ids. *)

val probe_end : t -> time:float -> detail:string -> unit
(** Charge the probe round-trip to [Probe] for the scoped ids. *)

(** {1 Terminal} *)

val finish :
  t -> ids:int list -> time:float -> state:terminal -> detail:string -> unit
(** Charge the trailing [Compute] and seal the record (first terminal
    wins); observes [lineage.total_s] and per-segment histograms. *)

(** {1 Readout} *)

val records : t -> record list
(** All records in commit order. *)

val find_msg : t -> int -> record option
val events : record -> event list
(** Events oldest-first. *)

val segment_value : record -> segment -> float
val segments : record -> (string * float) list
(** Non-zero segments in canonical order. *)

val elapsed : record -> float
(** Commit-to-terminal elapsed (0 when not terminal). *)

val segment_sum : record -> float

(** {1 Export} *)

val to_jsonl : t -> string
(** One JSON object per record per line, commit order. *)

val pp_record : Format.formatter -> record -> unit
(** The human-readable causal narrative used by [dyno explain]. *)
