(** The materialized view: extent storage plus a commit log.  Every
    successful maintenance process ends with w(MV) c(MV); with snapshot
    tracking on, the view keeps a copy of its initial extent and each
    commit records its {!change} to the extent (O(|delta|) for a refresh)
    and the definition it was built on, so strong consistency can be
    verified offline by folding the log forward.  With tracking off
    nothing is copied.

    The extent is refreshed {e in place}: {!extent} returns the live
    storage, which later refreshes mutate.  A reader that needs the value
    at one moment must {!Relation.copy} it. *)

open Dyno_relational

(** What one commit did to the extent.  The relations are private
    copies taken at commit time; the extent after commit [k] is the
    {!initial} extent with every change up to [k] applied in order (a
    [Delta] is added, a [Replaced] overwrites). *)
type change =
  | Unchanged  (** {!record_commit} *)
  | Delta of Relation.t  (** {!refresh}: the applied signed delta *)
  | Replaced of Relation.t  (** {!replace}: the installed extent *)

type commit = {
  at : float;  (** simulated commit time *)
  def_version : int;  (** view-definition version the commit was built on *)
  maintained : int list;  (** update-message ids integrated by this commit *)
  change : change option;  (** [None] when tracking is off *)
  def_snapshot : (Query.t * (string * Schema.t) list) option;
}

type t

val create : ?track_snapshots:bool -> View_def.t -> Relation.t -> t
val def : t -> View_def.t
val extent : t -> Relation.t
(** The live extent — the same physical relation across refreshes (until
    a {!replace}).  Copy it to keep a stable value. *)

val cardinality : t -> int
val commit_count : t -> int

val commits : t -> commit list
(** Chronological order. *)

val initial : t -> Relation.t option
(** A copy of the extent the view was created with, when tracking is on:
    the base the commit log's changes fold onto. *)

val record_commit : t -> at:float -> maintained:int list -> unit
(** Commit without an extent change (irrelevant updates, no-op batches). *)

val refresh : t -> at:float -> maintained:int list -> Relation.t -> unit
(** Apply a signed delta to the extent in place, in O(|delta|), and
    commit — w(MV) c(MV) of a VM process.  Indexes registered on the
    extent are maintained incrementally.
    @raise Relation.Schema_mismatch if the delta's schema differs.
    @raise Invalid_argument if the delta drives a multiplicity negative
    (a maintenance bug; tests rely on this tripwire).  A rejected delta
    leaves the extent and the commit log unchanged. *)

val replace : t -> at:float -> maintained:int list -> Relation.t -> unit
(** Install a whole new extent (adaptation after the definition changed
    shape).  The view takes ownership of the relation: later refreshes
    mutate it. *)

(** {1 Applied frontier}

    Per-source freshness bookkeeping written by the schedulers' staleness
    tracker: the highest source version the view has integrated (or
    trivially reflects) and the simulated time of that source commit. *)

val note_applied : t -> source:string -> version:int -> commit_time:float -> unit
(** Advance the frontier for a source (monotone: a stale redelivery never
    moves it backwards). *)

val applied_version : t -> string -> int option

val applied_frontier : t -> (string * (int * float)) list
(** [(source, (version, commit_time))], sorted by source id. *)

val pp : Format.formatter -> t -> unit
