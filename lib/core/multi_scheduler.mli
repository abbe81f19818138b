(** Multi-view Dyno: one update stream, one UMQ and one dependency
    correction pipeline serving several materialized views — the "plugged
    into any view system" extension the paper's conclusion sketches.

    A schema change induces concurrent dependencies as soon as it
    conflicts with {e any} view, so the corrected legal order is legal for
    all of them at once.  The head entry is maintained against each view
    in turn; if a later view's maintenance breaks while earlier views have
    already committed the entry, per-view {e applied sets} ensure the
    retry (possibly as part of a larger merged batch) only maintains what
    each view has not yet integrated, and that compensation keeps
    already-applied effects in. *)

open Dyno_view

type t

val create : Mat_view.t list -> t
val views : t -> Mat_view.t list

val run :
  ?config:Run_config.t ->
  Query_engine.t ->
  t ->
  Dyno_source.Meta_knowledge.t ->
  Stats.t
(** Drain the UMQ and the timeline, maintaining every entry against every
    view; statistics are aggregated across views.  Detection, correction,
    the outcome handler (done / stalled / aborted plus the strategy's
    correction), the concurrent sweep round and the run shell are the
    serial {!Scheduler}'s, so on one view the run equals
    {!Scheduler.run}.

    [config.parallel > 1] sweeps a single-DU head entry against up to
    [parallel] views concurrently (probe round trips overlap; refreshes
    commit in view order, and views committed before a failure keep
    their commit).  [self_maint] builds one auxiliary-view store per view
    (each view has its own join partners and coverage); [runtime]
    selects the backend for the per-view sweep compute.
    @raise Invalid_argument for an engine with more than one route (the
    scheduler drives one queue), [vm_mode = Recompute] or [du_group > 1]:
    the multi-view path maintains incrementally, one entry at a time.
    @raise Scheduler.Step_limit_exceeded beyond [config.max_steps]. *)
