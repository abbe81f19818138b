(** Dyno: the dynamic reordering scheduler — the main loop of Figure 6.

    Drives the UMQ to empty: (pessimistic) pre-exec detection + correction
    guarded by the schema-change flag, maintenance of the head entry (VM
    for data updates, VS+VA for schema changes, batch adaptation for
    merged nodes), and in-exec recovery when a maintenance query breaks:
    the process aborts, the queue is corrected, and maintenance resumes
    under the new legal order.

    The serial, sharded ({!Shard_scheduler}) and multi-view
    ({!Multi_scheduler}) loops share one copy of each piece of this
    machinery, exposed below: the run shell, the outcome handler for
    done / stalled / aborted steps, the strategy's correction after an
    abort, detection + correction over a list of views, and the
    concurrent sweep round. *)

open Dyno_view

(** How data updates are maintained (re-exported from {!Run_config}). *)
type vm_mode = Run_config.vm_mode =
  | Incremental  (** SWEEP-style probes computing a view delta (default) *)
  | Recompute
      (** naive baseline: re-materialize the whole view per update — the
          classic strawman incremental maintenance is measured against *)

(** The scheduler consumes the shared {!Run_config.t} record (one record
    drives the serial, multi-view and sharded schedulers).  [parallel]
    dispatches antichains of single data updates from distinct sources
    with SWEEP exclusion sets fixed at dispatch; same-source commit order
    and every CD/SD edge still serialize (Theorems 1–2), and [1] is
    bit-identical to the historical serial loop. *)
type config = Run_config.t = {
  strategy : Strategy.t;
  max_steps : int;
  compensate : bool;
  vm_mode : vm_mode;
  du_group : int;
  parallel : int;
  self_maint : bool;
  runtime : [ `Simulated | `Domains of int ];
      (** execution backend for antichain sweep compute — see
          {!Run_config.t} *)
}

val default_config : config
(** [= Run_config.default]: pessimistic, compensated, incremental, no
    grouping, serial, one million steps. *)

exception Step_limit_exceeded of int

(** Outcome of maintaining one queue entry (shared with the sharded
    scheduler, which drives the same per-entry machinery across many
    queues). *)
type step_outcome =
  | Done
  | AbortedStep of Dyno_source.Data_source.broken
  | UnreachableStep of Dyno_net.Retry.unreachable
      (** a maintenance query exhausted its transport retry budget; the
          entry stays at the queue head and is retried after recovery *)

val maintain_entry :
  ?local:Dyno_vm.Sweep.local ->
  compensate:bool ->
  vm_mode:vm_mode ->
  Query_engine.t ->
  Mat_view.t ->
  Dyno_source.Meta_knowledge.t ->
  Stats.t ->
  Umq.entry ->
  step_outcome
(** Maintain one queue entry (VM for a data update, VS+VA for a schema
    change, batch adaptation for a merged node), updating counters on
    success.  Does {e not} dequeue — the caller owns the queue.  [local]
    (self-maintenance tier) lets fully-covered sweeps skip their probe
    round trips — see {!Dyno_vm.Vm.maintain}. *)

val aux_store : Query_engine.t -> Mat_view.t -> Dyno_selfmaint.Aux_store.t
(** Build the view's auxiliary-projection store: derive the plan from the
    view definition, seed every projection from its source's state at the
    per-source {e delivered} frontier (reconstructed from the queues'
    admission history, so in-flight commits are excluded), and wire the
    refresh cost to the engine's cost model.  The caller installs
    {!Dyno_selfmaint.Aux_store.on_message} as an admit hook to keep it
    fed, as {!make_env} does. *)

val stall_and_wait :
  Query_engine.t -> Stats.t -> t0:float -> Dyno_net.Retry.unreachable -> unit
(** A maintenance step stalled on an unreachable source: charge the sunk
    work as busy, wait for recovery, and let the caller retry.  No
    correction runs — the queue order is not the problem. *)

val record_net_stats : Query_engine.t -> Stats.t -> unit
(** Copy the engine- and queue-level transport counters (retries,
    timeouts, lost/duplicated messages, dedup/reorder healing, net wait)
    into the run's statistics. *)

(** {2 Machinery shared with {!Shard_scheduler} and {!Multi_scheduler}} *)

val credit_sweep : Stats.t -> Dyno_vm.Sweep.stats -> unit
(** Credit one refreshed sweep: a maintained data update, its probes,
    compensations and self-maintenance savings, and one view commit. *)

val detect_pass : Query_engine.t -> nodes:int -> float -> unit
(** [detect_pass w ~nodes cost] charges one detection pass over [nodes]
    queue entries on the simulated clock, inside a [Detect] span, and
    observes it as the [detect.pass_s] metric.  The caller records the
    [Trace.Detect] line. *)

val correct_pass : Query_engine.t -> (float -> bool * 'a) -> 'a
(** [correct_pass w f] runs a correction [f] (handed its start time;
    it returns whether it reordered, and a result) inside a [Correct]
    span, observing its simulated duration as [correct.pass_s]. *)

val edge_provenance : Dyno_obs.Lineage.t -> time:float -> Dep_graph.t -> unit
(** Record every unsafe edge of the graph on its dependent updates'
    lineage (no-op when lineage is off). *)

val note_merges :
  Query_engine.t -> Stats.t -> merged_cycles:int -> merged_updates:int -> unit
(** Count merged dependency cycles and record the [Trace.Merge] line. *)

val detect_and_correct :
  force:bool -> Query_engine.t -> Mat_view.t list -> Stats.t -> unit
(** Pre-exec detection guarded by the schema-change flag (or, with
    [force], unconditional in-exec detection) plus correction of the
    primary queue, against every view sharing it: a schema change
    conflicts as soon as it conflicts with any defined view.  Charged to
    [Stats.busy]; the graph costs [n × views]. *)

(** A run's state: the engine, its configuration and statistics, the
    shard plan ([None] for one queue), one auxiliary store per view
    handed to {!make_env} (self-maintenance only) and the worker-domain
    pool ([`Domains _] runtime only). *)
type env = {
  w : Query_engine.t;
  config : config;
  stats : Stats.t;
  plan : Shard.t option;
  stores : (Mat_view.t * Dyno_selfmaint.Aux_store.t) array;
  locals : Dyno_vm.Sweep.local array;  (** one per store *)
  pool : Dyno_sim.Domain_pool.t option;
  mutable steps : int;
}

val make_env :
  config:config -> plan:Shard.t option -> Query_engine.t -> Mat_view.t list ->
  env
(** Fresh statistics, the worker pool, and (with [config.self_maint]) one
    {!aux_store} per listed view, each fed by its own admit hook. *)

val local : env -> int -> Dyno_vm.Sweep.local option
(** The [i]th store's local answers, when self-maintenance is on. *)

val tick : env -> unit
(** Count one scheduler step.
    @raise Step_limit_exceeded beyond [config.max_steps]. *)

val drive : env -> is_empty:(unit -> bool) -> (int -> unit) -> Stats.t
(** The loop: per step, deliver due messages, sync the auxiliary stores
    and sample the series; then idle to the next wakeup while [is_empty],
    else run the iteration inside a [Maintain] span (its id is the
    argument).  Shuts the pool down, drains the host profiler, and
    finishes the statistics and metrics mirrors. *)

val register_probes :
  env -> umqs:Umq.t list -> trackers:Freshness.t list -> unit
(** The one time-series probe set every scheduler registers when the
    sampler is on: [umq.depth] (summed over [umqs]), [sched.inflight],
    the [sched.view_commits], [sched.probes], [sched.aborts] and
    [net.retries] counters, [sched.busy_ratio], [sched.abort_ratio],
    [staleness_s] and [staleness_versions] (the most stale of
    [trackers]) and each tracker's own frontier probes. *)

val recover : env -> Mat_view.t list -> unit -> unit
(** The strategy's answer to an abort: pessimistic forces a detection if
    the schema-change flag is clear, optimistic always forces one, and
    merge-all collapses the queue into one batch ([Trace.Merge] plus
    lineage merge provenance). *)

val settle :
  env ->
  mid:int option ->
  t0:float ->
  ids:int list ->
  what:string ->
  on_done:(unit -> unit) ->
  recover:(unit -> unit) ->
  step_outcome ->
  unit
(** Settle a step dispatched at [t0] for updates [ids].  [Done] charges
    the busy time and runs [on_done]; [UnreachableStep] stalls until the
    source recovers; [AbortedStep] charges the wasted work to
    [abort_cost], records the abort ("[what] aborted after …") with its
    lineage provenance, and runs [recover].  The [mid] span, when given,
    gets the [outcome] (and [abort_s]) attributes. *)

(** One member of a concurrent sweep round: [msg]'s data update swept
    against [view], keeping the [applied] ids in and the [exclude] ids
    (earlier members of the round) out; [spent] receives its task time. *)
type member = {
  view : Mat_view.t;
  msg : Update_msg.t;
  du : Dyno_relational.Update.t;
  applied : int list;
  exclude : int list;
  local : Dyno_vm.Sweep.local option;
  thread : string;  (** span thread of the member's task *)
  mutable spent : float;
}

val sweep_round :
  env ->
  commit:(member -> Dyno_vm.Sweep.stats option -> unit) ->
  discard:(member -> unit) ->
  member list ->
  (member * step_outcome) option
(** Sweep every member concurrently (worker pool first, the rest as
    executor tasks), then commit in order up to the first failure.
    Committed members are credited and handed to [commit] ([None] when
    irrelevant); members after the failure go to [discard].  Returns the
    failed member. *)

val antichain :
  width:int -> Umq.t -> (Update_msg.t * Dyno_relational.Update.t) list
(** At most [width] single data updates from distinct sources off the
    queue prefix, stopping at the first schema change or batch. *)

val compare_arrival : Umq.entry -> Umq.entry -> int
(** Global arrival order across queues: minimum message id, then
    source. *)

val head_step :
  env ->
  mid:int ->
  fresh:Freshness.t ->
  recover:(unit -> unit) ->
  Mat_view.t ->
  Dyno_source.Meta_knowledge.t ->
  unit
(** Maintain the globally-oldest queue head with {!maintain_entry} and
    settle it. *)

val du_round :
  env ->
  mid:int ->
  fresh:Freshness.t ->
  recover:(unit -> unit) ->
  Mat_view.t ->
  (Update_msg.t * Dyno_relational.Update.t) list ->
  unit
(** One dependency-parallel round over an antichain in queue order (or
    global arrival order across shards), exclusion sets fixed at
    dispatch, settled as one step. *)

val run :
  ?config:config ->
  Query_engine.t ->
  Mat_view.t ->
  Dyno_source.Meta_knowledge.t ->
  Stats.t
(** [run w mv mk] loops until both the UMQ and the timeline of future
    source commits are drained, and returns the collected statistics.
    @raise Step_limit_exceeded if the loop exceeds [config.max_steps]. *)
