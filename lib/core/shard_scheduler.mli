(** Sharded Dyno: scale-out of the dynamic reordering scheduler.

    Sources are partitioned across shards by a {!Shard.t} plan; each
    shard owns its own UMQ, transport channel and exactly-once sequencer
    (installed by {!Dyno_view.Query_engine.install_routes}) and drains
    single data updates independently — per round, every shard
    contributes an antichain of DUs from distinct sources, all sweeps
    run as concurrent executor tasks, and refreshes commit serially in
    global arrival order (message id), exactly the dispatch-time
    exclusion-set discipline of {!Scheduler}'s parallel rounds lifted
    across queues.

    Schema changes cannot stay shard-local: a drop/rename conflicts with
    the one global view definition, and its concurrent dependencies may
    reach data updates queued on {e other} shards.  The first round that
    sees any shard's schema-change flag raised becomes a {b cross-shard
    barrier}: every queue pauses, the union of all queued entries (in
    global arrival order) runs through the {!Dep_graph} detection +
    correction machinery, and the corrected legal order is maintained
    serially up to and including its last schema change — so the global
    commit order is always a corrected topological order, shard
    boundaries notwithstanding.  The corrected order is ephemeral: shard
    queues are never rewritten, the pure-DU suffix simply resumes
    independent parallel draining.  An in-exec abort during the barrier
    restarts it on a fresh snapshot (the newly-detected conflict is part
    of the next graph).

    Rounds, the fallback head step, per-entry outcomes and the run shell
    are {!Scheduler}'s shared machinery, keyed by the shard plan; an
    abort outside the barrier raises the barrier for the next round.
    With a 1-shard plan this delegates to {!Scheduler.run} — bit-for-bit
    the historical behaviour. *)

open Dyno_view

val run :
  ?config:Run_config.t ->
  plan:Shard.t ->
  Query_engine.t ->
  Mat_view.t ->
  Dyno_source.Meta_knowledge.t ->
  Stats.t
(** Drain every shard's UMQ and the timeline.  [config.parallel] is the
    {e per-shard} antichain width (total in-flight sweeps per round is at
    most [parallel × shards]); [config.vm_mode = Recompute] forces the
    serial path.  The engine must have exactly one route per shard of
    [plan] (raises [Invalid_argument] otherwise; a 1-shard plan accepts
    the default single route).
    @raise Scheduler.Step_limit_exceeded beyond [config.max_steps]. *)
