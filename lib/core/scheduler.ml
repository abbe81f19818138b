(** Dyno: the dynamic reordering scheduler (Figure 6).

    The main loop processes the UMQ head forever:

    + (pessimistic only) if the schema-change flag is set, run pre-exec
      detection — build the dependency graph — and correct the queue into
      a legal order (merging cycles);
    + maintain the head entry: VM for a data update, VS+VA for a schema
      change, batch adaptation for a merged node;
    + if the maintenance aborted on a broken query (in-exec detection),
      leave the entry queued and correct: the pessimistic strategy picks
      the conflict up via the schema-change flag on the next iteration,
      the optimistic strategy runs detection+correction right now, and the
      merge-all strawman collapses the whole queue;
    + otherwise remove the head and continue.

    The loop runs until both the UMQ and the timeline of future source
    commits are drained (a real deployment runs forever; experiments have
    finite workloads).

    This module also holds the one copy of the loop machinery that
    {!Shard_scheduler} and {!Multi_scheduler} reuse: the run shell, the
    outcome handler, the post-abort correction, detection over a list of
    views and the concurrent sweep round. *)

open Dyno_view
open Dyno_sim

(** How data updates are maintained (re-exported from {!Run_config} so
    historical [Scheduler.Incremental] call sites keep reading
    naturally). *)
type vm_mode = Run_config.vm_mode =
  | Incremental  (** SWEEP-style probes computing a view delta (default) *)
  | Recompute
      (** naive baseline: re-materialize the whole view per update — the
          classic strawman incremental maintenance is measured against *)

(** The scheduler consumes the shared {!Run_config.t} record — the same
    record drives the multi-view and sharded schedulers, so CLI plumbing
    is written once. *)
type config = Run_config.t = {
  strategy : Strategy.t;
  max_steps : int;
  compensate : bool;
  vm_mode : vm_mode;
  du_group : int;
  parallel : int;
  self_maint : bool;
  runtime : [ `Simulated | `Domains of int ];
}

let default_config = Run_config.default

exception Step_limit_exceeded of int

type step_outcome =
  | Done
  | AbortedStep of Dyno_source.Data_source.broken
  | UnreachableStep of Dyno_net.Retry.unreachable
      (** a maintenance query exhausted its transport retry budget; the
          entry stays at the queue head and is retried after recovery *)

(* Credit a refreshed sweep's work to the run's statistics. *)
let credit_sweep (stats : Stats.t) (s : Dyno_vm.Sweep.stats) : unit =
  stats.Stats.du_maintained <- stats.Stats.du_maintained + 1;
  stats.Stats.probes <- stats.Stats.probes + s.Dyno_vm.Sweep.probes;
  stats.Stats.compensations <-
    stats.Stats.compensations + s.Dyno_vm.Sweep.compensations;
  stats.Stats.probes_avoided <-
    stats.Stats.probes_avoided + s.Dyno_vm.Sweep.probes_avoided;
  stats.Stats.bytes_saved <-
    stats.Stats.bytes_saved + s.Dyno_vm.Sweep.bytes_saved;
  stats.Stats.view_commits <- stats.Stats.view_commits + 1

(* One detection pass over [nodes] queue entries, charged [cost] on the
   simulated clock inside a Detect span and observed as [detect.pass_s].
   The caller records the [Trace.Detect] line. *)
let detect_pass (w : Query_engine.t) ~(nodes : int) (cost : float) : unit =
  let obs = Query_engine.obs w in
  let sp = Dyno_obs.Obs.spans obs and mx = Dyno_obs.Obs.metrics obs in
  let now () = Query_engine.now w in
  Dyno_obs.Span.with_span sp ~now Dyno_obs.Span.Detect
    (Dyno_obs.Span.namef sp "detect %d node(s)" nodes)
    (fun _ ->
      let td = now () in
      Query_engine.advance w cost;
      Dyno_obs.Metrics.observe mx "detect.pass_s" (now () -. td))

(* Run a correction [f] (given its start time; it returns whether it
   reordered, and its result) inside a Correct span, observing its
   simulated duration as [correct.pass_s]. *)
let correct_pass (w : Query_engine.t) (f : float -> bool * 'a) : 'a =
  let obs = Query_engine.obs w in
  let sp = Dyno_obs.Obs.spans obs and mx = Dyno_obs.Obs.metrics obs in
  let now () = Query_engine.now w in
  Dyno_obs.Span.with_span sp ~now Dyno_obs.Span.Correct "correct" (fun cid ->
      let tc = now () in
      let reordered, r = f tc in
      Dyno_obs.Metrics.observe mx "correct.pass_s" (now () -. tc);
      Dyno_obs.Span.set_attr sp cid "reordered" (string_of_bool reordered);
      r)

(* Record the unsafe edges of [g] on the dependent updates' lineage: the
   forensic provenance of a reorder, written before the correction
   rewrites the queue. *)
let edge_provenance (lin : Dyno_obs.Lineage.t) ~(time : float) g =
  if Dyno_obs.Lineage.enabled lin then
    List.iter
      (fun e ->
        Dyno_obs.Lineage.edge lin
          ~dep_ids:(Dep_graph.edge_dependent_ids g e)
          ~time ~detail:(Dep_graph.describe_edge g e))
      (Dep_graph.unsafe g)

(* Count and trace the dependency cycles a correction merged. *)
let note_merges (w : Query_engine.t) (stats : Stats.t) ~merged_cycles
    ~merged_updates : unit =
  if merged_cycles > 0 then begin
    stats.Stats.merges <- stats.Stats.merges + merged_cycles;
    Trace.recordf (Query_engine.trace w) ~time:(Query_engine.now w)
      Trace.Merge "%d cycle(s) merged (%d update(s))" merged_cycles
      merged_updates
  end

(* Charge a detection pass + correction on the simulated clock and update
   stats.  The graph is built against every view sharing the queue: a
   schema change conflicts as soon as it conflicts with any defined view,
   so the corrected order is legal for all of them, and the pass costs
   [n × views].  With every view undefined the stale definitions still
   order the queue, as the one-view scheduler always has. *)
let detect_and_correct ~(force : bool) (w : Query_engine.t)
    (mvs : Mat_view.t list) (stats : Stats.t) : unit =
  let umq = Query_engine.umq w in
  let cost = Query_engine.cost w in
  let t0 = Query_engine.now w in
  (* Test-and-clear first: a forced pass consumes a pending flag too. *)
  let fired = Umq.test_and_clear_schema_change_flag umq || force in
  if not fired then
    (* Flag fast path: O(1); no span — it would swamp the trace with one
       flag check per iteration. *)
    Query_engine.advance w cost.Cost_model.detect_flag
  else begin
    let defined =
      List.filter (fun mv -> View_def.is_valid (Mat_view.def mv)) mvs
    in
    let g =
      Dep_graph.build_many
        (List.map
           (fun mv ->
             let vd = Mat_view.def mv in
             (View_def.peek vd, View_def.schemas vd))
           (if defined = [] then mvs else defined))
        (Umq.entries umq)
    in
    stats.Stats.detections <- stats.Stats.detections + 1;
    let n = Dep_graph.size g in
    let m = List.length (List.filter Update_msg.is_sc (Umq.messages umq)) in
    detect_pass w ~nodes:n
      (Cost_model.detect cost ~n:(n * max 1 (List.length defined)) ~m);
    Trace.recordf (Query_engine.trace w) ~time:(Query_engine.now w)
      Trace.Detect "graph: %d node(s), %d edge(s), %d unsafe" n
      (List.length (Dep_graph.edges g))
      (Dep_graph.unsafe_count g);
    correct_pass w (fun tc ->
        let lin = Dyno_obs.Obs.lineage (Query_engine.obs w) in
        edge_provenance lin ~time:tc g;
        let r = Correct.apply umq g in
        List.iter
          (fun ids ->
            Dyno_obs.Lineage.merged lin ~ids ~time:tc
              ~detail:
                (Dyno_obs.Lineage.detailf lin
                   "dependency cycle merged: %d update(s) now one batch"
                   (List.length ids)))
          r.Correct.merged_members;
        Query_engine.advance w
          (Cost_model.correct cost ~nodes:r.Correct.nodes
             ~edges:r.Correct.edges);
        if r.Correct.reordered then begin
          stats.Stats.corrections <- stats.Stats.corrections + 1;
          Trace.recordf (Query_engine.trace w) ~time:(Query_engine.now w)
            Trace.Correct "queue reordered into a legal order"
        end;
        note_merges w stats ~merged_cycles:r.Correct.merged_cycles
          ~merged_updates:r.Correct.merged_updates;
        (r.Correct.reordered, ()))
  end;
  stats.Stats.busy <- stats.Stats.busy +. (Query_engine.now w -. t0)

(* Maintain one queue entry.  Updates counters on success.  [local] is
   the self-maintenance hook pair (None unless [config.self_maint]). *)
let maintain_entry ?local ~(compensate : bool) ~(vm_mode : vm_mode)
    (w : Query_engine.t) (mv : Mat_view.t)
    (mk : Dyno_source.Meta_knowledge.t) (stats : Stats.t)
    (entry : Umq.entry) : step_outcome =
  let trace = Query_engine.trace w in
  let vd = Mat_view.def mv in
  let lin = Dyno_obs.Obs.lineage (Query_engine.obs w) in
  let ids = Umq.entry_ids entry in
  let finish state detail =
    Dyno_obs.Lineage.finish lin ~ids ~time:(Query_engine.now w) ~state ~detail
  in
  (* Probe round-trips issued by this maintenance step are charged to
     this entry's updates via the ambient scope. *)
  Dyno_obs.Lineage.set_scope lin ids;
  Trace.recordf trace ~time:(Query_engine.now w) Trace.Maint_start "%a"
    Umq.pp_entry entry;
  if not (View_def.is_valid vd) then begin
    (* The view is undefined; updates are acknowledged and dropped. *)
    Trace.recordf trace ~time:(Query_engine.now w) Trace.Info
      "view undefined; dropping %a" Umq.pp_entry entry;
    stats.Stats.irrelevant <-
      stats.Stats.irrelevant + List.length (Umq.entry_messages entry);
    finish Dyno_obs.Lineage.Dropped_undefined
      "view undefined; update acknowledged and dropped";
    Done
  end
  else
    match entry with
    | Umq.Single m -> (
        match Update_msg.payload m with
        | Update_msg.Du u when vm_mode = Recompute -> (
            ignore u;
            match
              Dyno_va.Adapt.replace_extent w mv
                ~maintained:[ Update_msg.id m ]
                ~exclude:[ Update_msg.id m ]
            with
            | Ok () ->
                stats.Stats.du_maintained <- stats.Stats.du_maintained + 1;
                stats.Stats.view_commits <- stats.Stats.view_commits + 1;
                finish Dyno_obs.Lineage.Applied "view re-materialized";
                Done
            | Error (Query_engine.Broken b) -> AbortedStep b
            | Error (Query_engine.Unreachable u) -> UnreachableStep u)
        | Update_msg.Du u -> (
            match Dyno_vm.Vm.maintain ~compensate ?local w mv m u with
            | Dyno_vm.Vm.Refreshed { stats = s; _ } ->
                credit_sweep stats s;
                finish Dyno_obs.Lineage.Applied
                  (Dyno_obs.Lineage.detailf lin
                     "view refreshed (%d probe(s), %d compensation(s))"
                     s.Dyno_vm.Sweep.probes s.Dyno_vm.Sweep.compensations);
                Done
            | Dyno_vm.Vm.Irrelevant ->
                stats.Stats.irrelevant <- stats.Stats.irrelevant + 1;
                finish Dyno_obs.Lineage.Irrelevant "no pivot row in the view";
                Done
            | Dyno_vm.Vm.Aborted b -> AbortedStep b
            | Dyno_vm.Vm.Unreachable u -> UnreachableStep u)
        | Update_msg.Sc _ -> (
            match Dyno_va.Batch.maintain w mv mk [ m ] with
            | Dyno_va.Batch.Adapted ->
                stats.Stats.sc_maintained <- stats.Stats.sc_maintained + 1;
                stats.Stats.view_commits <- stats.Stats.view_commits + 1;
                finish Dyno_obs.Lineage.Applied "view adapted (VS + VA)";
                Done
            | Dyno_va.Batch.Aborted b -> AbortedStep b
            | Dyno_va.Batch.Unreachable u -> UnreachableStep u
            | Dyno_va.Batch.View_undefined _ ->
                stats.Stats.view_undefined <- true;
                finish Dyno_obs.Lineage.Applied
                  "schema change left the view undefined";
                Done))
    | Umq.Batch msgs -> (
        match Dyno_va.Batch.maintain w mv mk msgs with
        | Dyno_va.Batch.Adapted ->
            stats.Stats.batches <- stats.Stats.batches + 1;
            stats.Stats.batch_updates <-
              stats.Stats.batch_updates + List.length msgs;
            stats.Stats.view_commits <- stats.Stats.view_commits + 1;
            finish Dyno_obs.Lineage.Applied
              (Dyno_obs.Lineage.detailf lin "batch of %d adapted atomically"
                 (List.length msgs));
            Done
        | Dyno_va.Batch.Aborted b -> AbortedStep b
        | Dyno_va.Batch.Unreachable u -> UnreachableStep u
        | Dyno_va.Batch.View_undefined _ ->
            stats.Stats.view_undefined <- true;
            finish Dyno_obs.Lineage.Applied
              "schema change left the view undefined";
            Done)

(* A maintenance step stalled on an unreachable source: charge the sunk
   work as busy (it is NOT thrown away — the entry stays queued and is
   re-run), wait for recovery, and let the loop retry.  Unlike an abort,
   no correction runs: the queue order is not the problem. *)
let stall_and_wait (w : Query_engine.t) (stats : Stats.t) ~(t0 : float)
    (u : Dyno_net.Retry.unreachable) : unit =
  let trace = Query_engine.trace w in
  let dt = Query_engine.now w -. t0 in
  stats.Stats.busy <- stats.Stats.busy +. dt;
  stats.Stats.net_stalls <- stats.Stats.net_stalls + 1;
  Trace.recordf trace ~time:(Query_engine.now w) Trace.Outage
    "maintenance stalled: %a; waiting for recovery"
    Dyno_net.Retry.pp_unreachable u;
  Dyno_obs.Metrics.incr
    (Dyno_obs.Obs.metrics (Query_engine.obs w))
    "net.stalls";
  let sp = Dyno_obs.Obs.spans (Query_engine.obs w) in
  let waited =
    Dyno_obs.Span.with_span sp
      ~now:(fun () -> Query_engine.now w)
      Dyno_obs.Span.Stall
      (Dyno_obs.Span.namef sp "stall on %s" u.Dyno_net.Retry.source)
      (fun _ -> Query_engine.await_recovery w ~source:u.Dyno_net.Retry.source)
  in
  stats.Stats.busy <- stats.Stats.busy +. waited

(* Name the schema change behind a broken query: in-exec detection only
   diagnoses the query, so the lineage narrative looks up the queued SC
   from the broken source — the conflict the correction will resolve. *)
let abort_provenance (lin : Dyno_obs.Lineage.t) (umq : Umq.t)
    (b : Dyno_source.Data_source.broken) : string =
  let open Dyno_source.Data_source in
  if not (Dyno_obs.Lineage.enabled lin) then ""
  else
    match
      List.find_opt
        (fun m ->
          Update_msg.is_sc m && String.equal (Update_msg.source m) b.source)
        (Umq.messages umq)
    with
    | Some m ->
        Fmt.str "broken query %s (%s); aborting SC #%d at %s" b.query_name
          b.reason (Update_msg.id m) b.source
    | None ->
        Fmt.str "broken query %s at %s: %s" b.query_name b.source b.reason

(* Merge-all provenance: the strawman collapse is a causal rebirth too —
   members gain a parent link to the batch's oldest update. *)
let note_merge_all (lin : Dyno_obs.Lineage.t) ~(time : float)
    (r : Correct.report) : unit =
  List.iter
    (fun ids ->
      Dyno_obs.Lineage.merged lin ~ids ~time
        ~detail:
          (Dyno_obs.Lineage.detailf lin
             "merge-all: %d update(s) collapsed into one batch"
             (List.length ids)))
    r.Correct.merged_members

(* ---- Self-maintenance tier wiring (shared by all schedulers) ---- *)

(* Build a view's auxiliary store against this engine: projections are
   seeded (and re-seeded after schema-change invalidation) from the
   memoized source snapshots at the per-source delivered frontier — the
   exact historical state, never the live one, which may hold committed
   but undelivered updates neither maintenance path is allowed to see. *)
let aux_store (w : Query_engine.t) (mv : Mat_view.t) :
    Dyno_selfmaint.Aux_store.t =
  let registry = Query_engine.registry w in
  let lookup ~source ~rel ~version =
    match Dyno_source.Registry.find_opt registry source with
    | None -> None
    | Some ds -> (
        try Some (Dyno_source.Data_source.relation_at ds ~version rel)
        with _ -> None)
  in
  let history = List.concat_map Umq.history (Query_engine.umqs w) in
  let frontier source =
    List.fold_left
      (fun acc m ->
        if String.equal (Update_msg.source m) source then
          max acc (Update_msg.source_version m)
        else acc)
      0 history
  in
  let refresh_cost ~delta_tuples =
    Cost_model.refresh (Query_engine.cost w) ~delta_tuples
  in
  Dyno_selfmaint.Aux_store.create
    ~obs:(Query_engine.obs w)
    ~lookup ~frontier ~refresh_cost mv

(* A source's projections may only revalidate once no schema change of
   that source remains queued anywhere (the cross-shard barrier handles
   queued SCs globally, so the scan covers every route's queue). *)
let sync_aux (w : Query_engine.t) (store : Dyno_selfmaint.Aux_store.t)
    (mv : Mat_view.t) : unit =
  Dyno_selfmaint.Aux_store.sync store mv ~sc_queued:(fun src ->
      List.exists
        (fun u ->
          List.exists
            (fun m ->
              Update_msg.is_sc m && String.equal (Update_msg.source m) src)
            (Umq.messages u))
        (Query_engine.umqs w))

(* Copy the engine- and queue-level transport counters into the run's
   statistics (absolute values: one engine drives one run). *)
let record_net_stats (w : Query_engine.t) (stats : Stats.t) : unit =
  stats.Stats.retries <- Query_engine.net_retries w;
  stats.Stats.timeouts <- Query_engine.net_timeouts w;
  stats.Stats.net_wait <- Query_engine.net_wait w;
  stats.Stats.msgs_lost <- Query_engine.net_msgs_lost w;
  stats.Stats.msgs_duplicated <- Query_engine.net_msgs_duplicated w;
  stats.Stats.dups_dropped <- Query_engine.umq_dups_dropped w;
  stats.Stats.reorders_healed <- Query_engine.umq_reorders_healed w

(* Mirror the run's final statistics into the metrics registry, so the
   exported metrics JSON is self-contained.  Live counters ([net.*],
   [umq.*], [vm.*]) are incremented where they happen; this adds the
   scheduler-level totals under [sched.*]. *)
let mirror_stats (obs : Dyno_obs.Obs.t) (stats : Stats.t) : unit =
  let mx = Dyno_obs.Obs.metrics obs in
  if Dyno_obs.Metrics.enabled mx then begin
    Dyno_obs.Metrics.set_gauge mx "sched.busy_s" stats.Stats.busy;
    Dyno_obs.Metrics.set_gauge mx "sched.abort_cost_s" stats.Stats.abort_cost;
    Dyno_obs.Metrics.set_gauge mx "sched.idle_s" stats.Stats.idle;
    Dyno_obs.Metrics.set_gauge mx "sched.end_time_s" stats.Stats.end_time;
    Dyno_obs.Metrics.set_gauge mx "sched.net_wait_s" stats.Stats.net_wait;
    Dyno_obs.Metrics.set_gauge mx "sched.stall_ratio"
      (if stats.Stats.end_time > 0.0 then
         stats.Stats.net_wait /. stats.Stats.end_time
       else 0.0);
    Dyno_obs.Metrics.set_counter mx "sched.du_maintained"
      stats.Stats.du_maintained;
    Dyno_obs.Metrics.set_counter mx "sched.sc_maintained"
      stats.Stats.sc_maintained;
    Dyno_obs.Metrics.set_counter mx "sched.batches" stats.Stats.batches;
    Dyno_obs.Metrics.set_counter mx "sched.irrelevant" stats.Stats.irrelevant;
    Dyno_obs.Metrics.set_counter mx "sched.aborts" stats.Stats.aborts;
    Dyno_obs.Metrics.set_counter mx "sched.broken_queries"
      stats.Stats.broken_queries;
    Dyno_obs.Metrics.set_counter mx "sched.detections" stats.Stats.detections;
    Dyno_obs.Metrics.set_counter mx "sched.corrections"
      stats.Stats.corrections;
    Dyno_obs.Metrics.set_counter mx "sched.merges" stats.Stats.merges;
    Dyno_obs.Metrics.set_counter mx "sched.probes" stats.Stats.probes;
    Dyno_obs.Metrics.set_counter mx "sched.compensations"
      stats.Stats.compensations;
    Dyno_obs.Metrics.set_counter mx "sched.view_commits"
      stats.Stats.view_commits;
    (* Self-maintenance totals: only when the tier actually fired, so
       baseline metric exports keep their historical key set. *)
    if stats.Stats.probes_avoided > 0 then begin
      Dyno_obs.Metrics.set_counter mx "sched.probes_avoided"
        stats.Stats.probes_avoided;
      Dyno_obs.Metrics.set_counter mx "sched.bytes_saved"
        stats.Stats.bytes_saved
    end
  end

(* Surface simulated-trace ring evictions: silently truncated traces
   become a visible counter ([obs.trace_dropped], always set when the
   registry is live — 0 means "nothing was lost"). *)
let mirror_trace_dropped (w : Query_engine.t) : unit =
  let mx = Dyno_obs.Obs.metrics (Query_engine.obs w) in
  if Dyno_obs.Metrics.enabled mx then
    Dyno_obs.Metrics.set_counter mx "obs.trace_dropped"
      (Dyno_sim.Trace.dropped (Query_engine.trace w))

(* Fold the host profiler's rings into the metrics registry and join the
   per-member host compute seconds back onto their lineage records.
   Must run after the pool quiesced (post-[Domain_pool.shutdown]): the
   worker rings are only safely readable once their domains joined.  A
   disabled profiler makes this a no-op. *)
let drain_hostprof (w : Query_engine.t) : unit =
  let open Dyno_obs in
  let obs = Query_engine.obs w in
  let hp = Obs.hostprof obs in
  if Hostprof.enabled hp then begin
    let s = Hostprof.drain hp in
    let mx = Obs.metrics obs in
    Metrics.set_gauge mx "host.wall_s" s.Hostprof.wall_s;
    Metrics.set_gauge mx "host.imbalance" s.Hostprof.imbalance;
    List.iter
      (fun d ->
        let pre = Printf.sprintf "host.domain.%d" d.Hostprof.domain in
        Metrics.set_gauge mx (pre ^ ".busy_s") d.Hostprof.busy_s;
        Metrics.set_gauge mx (pre ^ ".idle_s") d.Hostprof.idle_s;
        Metrics.set_gauge mx (pre ^ ".gc_s") d.Hostprof.gc_s;
        Metrics.set_gauge mx (pre ^ ".utilization") d.Hostprof.utilization;
        Metrics.set_counter mx (pre ^ ".tasks") d.Hostprof.tasks;
        Metrics.set_counter mx (pre ^ ".minor_collections")
          d.Hostprof.gc.Hostprof.minor_collections;
        Metrics.set_counter mx (pre ^ ".major_collections")
          d.Hostprof.gc.Hostprof.major_collections;
        Metrics.set_counter mx (pre ^ ".events_dropped")
          d.Hostprof.events_dropped)
      s.Hostprof.domains;
    (* host_compute_s attribution: keyed by the dispatched member id the
       schedulers tag pool tasks with; [Lineage.note] is non-charging,
       so the simulated cost model is untouched. *)
    let lin = Obs.lineage obs in
    List.iter
      (fun (tag, secs) ->
        Lineage.note lin ~ids:[ tag ] ~time:(Query_engine.now w)
          ~kind:"host_compute_s"
          ~detail:(Printf.sprintf "%.6fs on worker-domain pool" secs))
      s.Hostprof.attributions
  end

(* --- The run shell shared by the serial, sharded and multi-view loops - *)

type env = {
  w : Query_engine.t;
  config : config;
  stats : Stats.t;
  plan : Shard.t option;
  stores : (Mat_view.t * Dyno_selfmaint.Aux_store.t) array;
  locals : Dyno_vm.Sweep.local array;
  pool : Dyno_sim.Domain_pool.t option;
  mutable steps : int;
}

let make_env ~(config : config) ~(plan : Shard.t option) (w : Query_engine.t)
    (store_views : Mat_view.t list) : env =
  let stores =
    if config.self_maint then
      Array.of_list
        (List.map
           (fun mv ->
             let s = aux_store w mv in
             Query_engine.add_admit_hook w
               (Dyno_selfmaint.Aux_store.on_message s);
             (mv, s))
           store_views)
    else [||]
  in
  (* Multicore runtime: a fixed worker-domain pool for the lifetime of
     the run.  [`Domains 1] still routes through the prepare/compute
     split (serially, on the coordinator) — the honest baseline for
     speedup measurements. *)
  let pool =
    match config.runtime with
    | `Simulated -> None
    | `Domains n ->
        Some
          (Dyno_sim.Domain_pool.create
             ~profiler:(Dyno_obs.Obs.hostprof (Query_engine.obs w))
             ~domains:n ())
  in
  {
    w;
    config;
    stats = Stats.create ();
    plan;
    stores;
    locals = Array.map (fun (_, s) -> Dyno_selfmaint.Aux_store.local s) stores;
    pool;
    steps = 0;
  }

let local env i =
  if Array.length env.locals = 0 then None else Some env.locals.(i)

let route env source =
  match env.plan with None -> 0 | Some p -> Shard.owner p source

let tick env =
  env.steps <- env.steps + 1;
  if env.steps > env.config.max_steps then
    raise (Step_limit_exceeded env.steps)

let drive env ~(is_empty : unit -> bool) (iteration : int -> unit) : Stats.t =
  let w = env.w and stats = env.stats in
  let obs = Query_engine.obs w in
  let sp = Dyno_obs.Obs.spans obs in
  let series = Dyno_obs.Obs.series obs in
  let now () = Query_engine.now w in
  let rec loop () =
    tick env;
    Query_engine.deliver_due w;
    (* Revalidate auxiliary projections whose invalidating schema changes
       have all been maintained (no-op unless something is invalid). *)
    Array.iter (fun (mv, s) -> sync_aux w s mv) env.stores;
    (* Sampling at scheduler wakeups: every state change in the simulation
       happens at a wakeup, so sampling here (rate-limited to the series
       interval) captures every change-point without touching the clock. *)
    ignore (Dyno_obs.Timeseries.maybe_sample series ~now:(now ()) : bool);
    if is_empty () then begin
      (* Wake for the next scheduled commit OR the next in-flight message
         arrival — with transport delay the timeline can be drained while
         messages are still on the wire. *)
      match Query_engine.next_wakeup w with
      | None -> () (* drained: done *)
      | Some t ->
          let dt = t -. now () in
          if dt > 0.0 then stats.Stats.idle <- stats.Stats.idle +. dt;
          Query_engine.idle_until w t;
          loop ()
    end
    else begin
      (* Every clock advance inside an iteration is charged to
         [Stats.busy], so Σ maintain-span durations = busy. *)
      Dyno_obs.Span.with_span sp ~now Dyno_obs.Span.Maintain
        (Dyno_obs.Span.namef sp "step %d" env.steps)
        iteration;
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Dyno_sim.Domain_pool.shutdown env.pool;
      (* Rings are safe to read once the workers joined. *)
      drain_hostprof w)
    loop;
  (* Force a final sample at quiescence so the series always ends with the
     caught-up state (staleness exactly 0). *)
  Dyno_obs.Timeseries.sample series ~now:(now ());
  stats.Stats.end_time <- now ();
  record_net_stats w stats;
  mirror_stats obs stats;
  mirror_trace_dropped w;
  stats

(* The strategy's answer to an aborted step, over every view sharing the
   queue. *)
let recover env (mvs : Mat_view.t list) () : unit =
  let w = env.w and stats = env.stats in
  let umq = Query_engine.umq w in
  match env.config.strategy with
  | Strategy.Pessimistic ->
      (* The SC that broke us set the schema-change flag when it was
         enqueued; the next iteration's pre-exec pass will correct the
         queue (Figure 6: "corrected in the next loop").  Defensive: if
         the flag is somehow already consumed, force a correction now
         rather than retry the same doomed head forever. *)
      if not (Umq.peek_schema_change_flag umq) then
        detect_and_correct ~force:true w mvs stats
  | Strategy.Optimistic ->
      (* In-exec detection is the only mechanism: correct now. *)
      detect_and_correct ~force:true w mvs stats
  | Strategy.Merge_all ->
      let r = Correct.merge_all umq in
      if r.Correct.reordered then begin
        stats.Stats.corrections <- stats.Stats.corrections + 1;
        stats.Stats.merges <- stats.Stats.merges + 1;
        Trace.recordf (Query_engine.trace w) ~time:(Query_engine.now w)
          Trace.Merge "merge-all: %d update(s) collapsed"
          r.Correct.merged_updates;
        note_merge_all
          (Dyno_obs.Obs.lineage (Query_engine.obs w))
          ~time:(Query_engine.now w) r
      end

(* Settle one dispatched step that started at [t0]: charge it, label the
   [mid] span, and record the outcome.  A finished step runs [on_done]; a
   stalled one waits out the outage (the entry stays queued and is
   re-run); an aborted one is charged as wasted work and handed to
   [recover] — the strategy's correction, or the sharded barrier. *)
let settle env ~(mid : int option) ~(t0 : float) ~(ids : int list)
    ~(what : string) ~(on_done : unit -> unit) ~(recover : unit -> unit)
    (outcome : step_outcome) : unit =
  let w = env.w and stats = env.stats in
  let obs = Query_engine.obs w in
  let sp = Dyno_obs.Obs.spans obs
  and lin = Dyno_obs.Obs.lineage obs in
  let attr k v =
    Option.iter (fun mid -> Dyno_obs.Span.set_attr sp mid k v) mid
  in
  match outcome with
  | Done ->
      attr "outcome" "done";
      stats.Stats.busy <- stats.Stats.busy +. (Query_engine.now w -. t0);
      on_done ()
  | UnreachableStep u ->
      attr "outcome" "stalled";
      stall_and_wait w stats ~t0 u;
      Dyno_obs.Lineage.stall lin ~ids ~time:(Query_engine.now w)
        ~detail:
          (Dyno_obs.Lineage.detailf lin "%a" Dyno_net.Retry.pp_unreachable u)
  | AbortedStep b ->
      let dt = Query_engine.now w -. t0 in
      stats.Stats.busy <- stats.Stats.busy +. dt;
      stats.Stats.abort_cost <- stats.Stats.abort_cost +. dt;
      stats.Stats.aborts <- stats.Stats.aborts + 1;
      stats.Stats.broken_queries <- stats.Stats.broken_queries + 1;
      attr "outcome" "aborted";
      attr "abort_s" (Dyno_obs.Span.namef sp "%.17g" dt);
      Trace.recordf (Query_engine.trace w) ~time:(Query_engine.now w)
        Trace.Abort "%s aborted after %.3f s: %a" what dt
        Dyno_source.Data_source.pp_broken b;
      (* Provenance looks for the conflicting SC in the queue owning the
         broken source. *)
      Dyno_obs.Lineage.abort lin ~ids ~time:(Query_engine.now w)
        ~detail:
          (abort_provenance lin
             (Query_engine.route_umq w
                (route env b.Dyno_source.Data_source.source))
             b);
      recover ()

(* --- One concurrent sweep round ------------------------------------- *)

(* One round member: a single data update swept against one view.  The
   serial and sharded schedulers sweep an antichain of updates against
   their one view; the multi-view scheduler sweeps one update against
   several views.  [spent] is filled in with the member's task time. *)
type member = {
  view : Mat_view.t;
  msg : Update_msg.t;
  du : Dyno_relational.Update.t;
  applied : int list;
  exclude : int list;
  local : Dyno_vm.Sweep.local option;
  thread : string;
  mutable spent : float;
}

(* Evaluate a dispatched round's fully-covered local sweeps on the
   worker-domain pool.  Phase A (coordinator): run each member's
   {!Dyno_vm.Vm.prepare_sweep} prelude in round order, capturing pure
   compute inputs with exclusion sets already frozen.  Phase B: one pool
   batch over {!Dyno_vm.Sweep.compute_local} — pure CPU, no engine,
   clock or observability access on the workers.  Phase C (coordinator):
   replay the local-answer bookkeeping for each harvested result.  The
   returned array holds [Some swept] for members decided here; [None]
   members still need the cooperative probed path on the executor.
   Admission, commits and the simulated clock never leave the
   coordinator, so Theorems 1–2 are untouched: this only relocates
   compute the cooperative path would have run inline at dispatch
   time. *)
let pool_sweeps ~(pool : Dyno_sim.Domain_pool.t) ~(compensate : bool)
    (w : Query_engine.t) (stats : Stats.t) (jobs : member array) :
    Dyno_vm.Vm.swept option array =
  let prepared =
    Array.map
      (fun j ->
        Dyno_vm.Vm.prepare_sweep ~compensate ~applied:j.applied
          ~exclude_extra:j.exclude ?local:j.local w j.view j.msg j.du)
      jobs
  in
  let offload = ref [] in
  Array.iteri
    (fun i p ->
      match p with
      | Dyno_vm.Vm.Offloadable input -> offload := (i, input) :: !offload
      | Dyno_vm.Vm.Settled _ | Dyno_vm.Vm.Needs_probes -> ())
    prepared;
  let offload = Array.of_list (List.rev !offload) in
  let outs =
    (* Tag each pool task with its member's message id so the host
       profiler can attribute compute seconds back onto the lineage
       record (a no-op when the profiler is off). *)
    Dyno_sim.Domain_pool.run_all
      ~tags:(Array.map (fun (i, _) -> Update_msg.id jobs.(i).msg) offload)
      pool
      (Array.map
         (fun (_, input) () -> Dyno_vm.Sweep.compute_local input)
         offload)
  in
  stats.Stats.mcore_tasks <- stats.Stats.mcore_tasks + Array.length offload;
  let results =
    Array.map
      (function Dyno_vm.Vm.Settled s -> Some s | _ -> None)
      prepared
  in
  let lin = Dyno_obs.Obs.lineage (Query_engine.obs w) in
  Array.iteri
    (fun k (i, input) ->
      match outs.(k) with
      | Some ((dv, st) as ok) ->
          let j = jobs.(i) in
          Dyno_obs.Lineage.set_scope lin [ Update_msg.id j.msg ];
          (match j.local with
          | Some l -> Dyno_vm.Sweep.record_local w ~local:l input ok
          | None -> ());
          results.(i) <- Some (Dyno_vm.Vm.Swept (dv, st))
      | None ->
          (* The pure compute fell back (a local evaluation failed); let
             the probed path decide, exactly as the inline path would. *)
          ())
    offload;
  results

(* One concurrent maintenance round.  The sweeps — probe round trips
   included — run as cooperative executor tasks and overlap on the wire
   (under the [`Domains _] runtime, fully-covered local sweeps are
   evaluated on worker domains first; only the remainder takes the
   executor).  Refreshes then commit serially at the barrier, in member
   order, stopping at the first failed member: [commit] runs after each
   committed member ([Some] sweep stats when the view was refreshed,
   [None] when the update was irrelevant), [discard] for every member
   after the failure — its entry stays queued, and since exclusion sets
   were fixed at dispatch a re-sweep on the next round compensates
   correctly.  Returns the failed member and its outcome, if any. *)
let sweep_round env ~(commit : member -> Dyno_vm.Sweep.stats option -> unit)
    ~(discard : member -> unit) (members : member list) :
    (member * step_outcome) option =
  let w = env.w and stats = env.stats in
  let compensate = env.config.compensate in
  let obs = Query_engine.obs w in
  let sp = Dyno_obs.Obs.spans obs
  and mx = Dyno_obs.Obs.metrics obs in
  let lin = Dyno_obs.Obs.lineage obs in
  let now () = Query_engine.now w in
  let members = Array.of_list members in
  let k = Array.length members in
  Dyno_obs.Metrics.set_gauge mx "sched.inflight" (float_of_int k);
  let t0 = now () in
  let results =
    match env.pool with
    | None -> Array.make k None
    | Some pool -> pool_sweeps ~pool ~compensate w stats members
  in
  Executor.run_all (Query_engine.executor w)
    (List.concat
       (List.mapi
          (fun i mb ->
            if results.(i) <> None then []
            else
              [
                (fun () ->
                  let id = Update_msg.id mb.msg in
                  Dyno_obs.Span.with_span sp ~now ~thread:mb.thread
                    Dyno_obs.Span.Task
                    (Dyno_obs.Span.namef sp "maintain #%d" id)
                    (fun _ ->
                      (* Scope this task's context to its update so probe
                         round-trips land on the right lineage record. *)
                      Dyno_obs.Lineage.set_scope lin [ id ];
                      let ts = now () in
                      results.(i) <-
                        Some
                          (Dyno_vm.Vm.maintain_sweep ~compensate
                             ~applied:mb.applied ~exclude_extra:mb.exclude
                             ?local:mb.local w mb.view mb.msg mb.du);
                      mb.spent <- now () -. ts));
              ])
          (Array.to_list members)));
  let failure = ref None in
  Array.iteri
    (fun i mb ->
      if Option.is_some !failure then discard mb
      else
        match results.(i) with
        | Some (Dyno_vm.Vm.Swept (dv, s)) -> (
            match Dyno_vm.Vm.commit_swept w mb.view mb.msg dv s with
            | Dyno_vm.Vm.Refreshed { stats = s; _ } ->
                credit_sweep stats s;
                commit mb (Some s)
            | _ -> assert false)
        | Some Dyno_vm.Vm.Swept_irrelevant ->
            Mat_view.record_commit mb.view ~at:(now ())
              ~maintained:[ Update_msg.id mb.msg ];
            stats.Stats.irrelevant <- stats.Stats.irrelevant + 1;
            commit mb None
        | Some (Dyno_vm.Vm.Swept_aborted b) ->
            failure := Some (mb, AbortedStep b)
        | Some (Dyno_vm.Vm.Swept_unreachable u) ->
            failure := Some (mb, UnreachableStep u)
        | None -> assert false)
    members;
  (* Overlap saved: the spread between the members' summed task lifetimes
     and the round's wall time — what back-to-back execution of the same
     intervals would have cost extra. *)
  Dyno_obs.Metrics.add_gauge mx "net.overlap_saved_s"
    (Float.max 0.0
       (Array.fold_left (fun acc mb -> acc +. mb.spent) 0.0 members
       -. (now () -. t0)));
  Dyno_obs.Metrics.set_gauge mx "sched.inflight" 0.0;
  !failure

(* The frontier of concurrently-maintainable entries of one queue, at
   most [width] long: single data updates from distinct sources, scanned
   from the queue head, stopping at the first schema change or merged
   batch (those carry Concurrent edges to every other entry) and
   serializing same-source chains (Semantic edges keep per-source commit
   order) by deferring their later links to a later round. *)
let antichain ~(width : int) (umq : Umq.t) :
    (Update_msg.t * Dyno_relational.Update.t) list =
  let rec scan acc seen = function
    | Umq.Single m :: rest when Update_msg.is_du m ->
        if List.length acc >= width then List.rev acc
        else
          let src = Update_msg.source m in
          if List.exists (String.equal src) seen then scan acc seen rest
          else (
            match Update_msg.as_du m with
            | Some u -> scan ((m, u) :: acc) (src :: seen) rest
            | None -> List.rev acc)
    | _ -> List.rev acc
  in
  scan [] [] (Umq.entries umq)


(* --- Dispatch over one or many queues (serial and sharded) ---------- *)

(* Global arrival order: message ids are drawn from one shared counter
   across every shard's queue (Umq.create ~ids), so the minimum id of an
   entry totally orders the union of the queues; the source name breaks
   ties defensively for worlds built without a shared counter. *)
let compare_arrival a b =
  let min_id e = List.fold_left min max_int (Umq.entry_ids e) in
  let source e =
    match Umq.entry_messages e with [] -> "" | m :: _ -> Update_msg.source m
  in
  match compare (min_id a) (min_id b) with
  | 0 -> String.compare (source a) (source b)
  | c -> c

(* Maintain the globally-oldest queue head — the queue head itself for
   the serial scheduler — with the per-entry machinery. *)
let head_step env ~mid ~(fresh : Freshness.t) ~recover (mv : Mat_view.t)
    (mk : Dyno_source.Meta_knowledge.t) : unit =
  let w = env.w in
  let obs = Query_engine.obs w in
  let sp = Dyno_obs.Obs.spans obs
  and lin = Dyno_obs.Obs.lineage obs in
  let sharded = Option.is_some env.plan in
  let oldest =
    List.fold_left
      (fun (i, best) q ->
        match (Umq.head q, best) with
        | None, _ -> (i + 1, best)
        | Some e, Some (_, _, be) when compare_arrival be e <= 0 ->
            (i + 1, best)
        | Some e, _ -> (i + 1, Some (i, q, e)))
      (0, None) (Query_engine.umqs w)
    |> snd
  in
  match oldest with
  | None -> ()
  | Some (qi, q, entry) ->
      Dyno_obs.Span.set_name sp mid
        (Dyno_obs.Span.namef sp "%a" Umq.pp_entry entry);
      List.iter Umq.clear_broken_query_flag (Query_engine.umqs w);
      let t0 = Query_engine.now w in
      let ids = Umq.entry_ids entry in
      Dyno_obs.Lineage.dispatch lin ~ids ~time:t0
        ~detail:
          (if sharded then
             Dyno_obs.Lineage.detailf lin "dispatched at shard %d queue head" qi
           else "dispatched at queue head")
        ();
      maintain_entry ?local:(local env qi) ~compensate:env.config.compensate
        ~vm_mode:env.config.vm_mode w mv mk env.stats entry
      |> settle env ~mid:(Some mid) ~t0 ~ids ~recover
           ~what:(if sharded then "shard maintenance" else "maintenance")
           ~on_done:(fun () ->
             Freshness.note_entry fresh ~now:(Query_engine.now w)
               (Umq.entry_messages entry);
             Umq.remove_head q)

(* One dependency-parallel round over [members] — an antichain of single
   data updates from distinct sources, in queue (serial) or global
   arrival (sharded) order — with exclusion sets fixed at dispatch:
   member [i] must not compensate against earlier members, which are
   being maintained concurrently exactly as if a serial pass had already
   processed them.  A failed member leaves it and every later member
   queued. *)
let du_round env ~mid ~(fresh : Freshness.t) ~recover (mv : Mat_view.t)
    (members : (Update_msg.t * Dyno_relational.Update.t) list) : unit =
  let w = env.w in
  let obs = Query_engine.obs w in
  let sp = Dyno_obs.Obs.spans obs
  and mx = Dyno_obs.Obs.metrics obs
  and lin = Dyno_obs.Obs.lineage obs in
  let now () = Query_engine.now w in
  let sharded = Option.is_some env.plan in
  let k = List.length members in
  Dyno_obs.Span.set_name sp mid
    (if sharded then Dyno_obs.Span.namef sp "shard round of %d" k
     else Dyno_obs.Span.namef sp "round of %d" k);
  if not sharded then
    Dyno_obs.Metrics.observe mx "sched.antichain_size" (float_of_int k);
  List.iter Umq.clear_broken_query_flag (Query_engine.umqs w);
  let t0 = now () in
  List.iter
    (fun (m, _) ->
      Trace.recordf (Query_engine.trace w) ~time:t0 Trace.Maint_start "%a"
        Umq.pp_entry (Umq.Single m))
    members;
  let earlier = ref [] in
  let members =
    List.mapi
      (fun i (m, u) ->
        let id = Update_msg.id m and shard = route env (Update_msg.source m) in
        Dyno_obs.Lineage.dispatch lin ~ids:[ id ] ~time:t0
          ~detail:
            (if sharded then
               Dyno_obs.Lineage.detailf lin
                 "dispatched into shard round of %d (shard %d)" k shard
             else
               Dyno_obs.Lineage.detailf lin
                 "dispatched into parallel round of %d (slot %d)" k i)
          ();
        let exclude = !earlier in
        earlier := id :: exclude;
        {
          view = mv;
          msg = m;
          du = u;
          applied = [];
          exclude;
          local = local env shard;
          thread = Update_msg.source m;
          spent = 0.0;
        })
      members
  in
  let failure =
    sweep_round env members
      ~commit:(fun mb s ->
        let id = Update_msg.id mb.msg in
        Freshness.note_entry fresh ~now:(now ()) [ mb.msg ];
        let state, detail =
          match s with
          | None -> (Dyno_obs.Lineage.Irrelevant, "no pivot row in the view")
          | Some s ->
              ( Dyno_obs.Lineage.Applied,
                if sharded then
                  Dyno_obs.Lineage.detailf lin
                    "view refreshed in shard round (%d probe(s), %d \
                     compensation(s))"
                    s.Dyno_vm.Sweep.probes s.Dyno_vm.Sweep.compensations
                else
                  Dyno_obs.Lineage.detailf lin
                    "view refreshed in parallel round (%d probe(s), %d \
                     compensation(s))"
                    s.Dyno_vm.Sweep.probes s.Dyno_vm.Sweep.compensations )
        in
        Dyno_obs.Lineage.finish lin ~ids:[ id ] ~time:(now ()) ~state ~detail;
        Umq.remove_entry
          (Query_engine.route_umq w (route env (Update_msg.source mb.msg)))
          (Umq.Single mb.msg))
      ~discard:(fun mb ->
        (* The wasted work shows up as [Queue] time on re-dispatch,
           keeping segment sums exact. *)
        Dyno_obs.Lineage.note lin
          ~ids:[ Update_msg.id mb.msg ]
          ~time:(now ()) ~kind:"requeued"
          ~detail:"earlier round member failed; sweep discarded, requeued")
  in
  if sharded && Dyno_obs.Metrics.enabled mx then
    List.iter
      (fun mb ->
        Dyno_obs.Metrics.add_gauge mx
          (Printf.sprintf "shard.%d.busy_s"
             (route env (Update_msg.source mb.msg)))
          mb.spent)
      members;
  let outcome, ids =
    match failure with
    | None -> (Done, [])
    | Some (mb, o) -> (o, [ Update_msg.id mb.msg ])
  in
  settle env ~mid:(Some mid) ~t0 ~ids ~recover ~on_done:ignore
    ~what:(if sharded then "sharded round" else "parallel round")
    outcome

(* The time-series probes every scheduler registers (when the sampler is
   on): queue depth summed over [umqs], the in-flight gauge, commit,
   probe, abort and retry counters, busy and abort ratios, and the
   staleness of the most stale view among [trackers] plus each tracker's
   own frontier probes. *)
let register_probes env ~(umqs : Umq.t list) ~(trackers : Freshness.t list) :
    unit =
  let w = env.w and stats = env.stats in
  let obs = Query_engine.obs w in
  let series = Dyno_obs.Obs.series obs in
  if Dyno_obs.Timeseries.enabled series then begin
    let mx = Dyno_obs.Obs.metrics obs in
    let probe = Dyno_obs.Timeseries.probe series in
    probe "umq.depth" (fun _ ->
        float_of_int (List.fold_left (fun a q -> a + Umq.length q) 0 umqs));
    probe "sched.inflight" (fun _ ->
        Dyno_obs.Metrics.gauge_value mx "sched.inflight");
    probe ~kind:`Counter "sched.view_commits" (fun _ ->
        float_of_int stats.Stats.view_commits);
    probe ~kind:`Counter "sched.probes" (fun _ ->
        float_of_int stats.Stats.probes);
    probe ~kind:`Counter "sched.aborts" (fun _ ->
        float_of_int stats.Stats.aborts);
    probe ~kind:`Counter "net.retries" (fun _ ->
        float_of_int (Query_engine.net_retries w));
    probe "sched.busy_ratio" (fun now ->
        if now > 0.0 then stats.Stats.busy /. now else 0.0);
    probe "sched.abort_ratio" (fun _ ->
        if stats.Stats.busy > 0.0 then
          stats.Stats.abort_cost /. stats.Stats.busy
        else 0.0);
    probe "staleness_s" (fun now ->
        List.fold_left
          (fun acc f -> Float.max acc (Freshness.staleness_seconds f ~now))
          0.0 trackers);
    probe "staleness_versions" (fun _ ->
        float_of_int
          (List.fold_left
             (fun acc f -> max acc (Freshness.lag_versions f))
             0 trackers));
    List.iter (fun f -> Freshness.register_probes f series) trackers
  end

(** [run ?config w mv mk] drives the Dyno loop until the UMQ and the
    timeline are both drained; returns the collected statistics. *)
let run ?(config = default_config) (w : Query_engine.t) (mv : Mat_view.t)
    (mk : Dyno_source.Meta_knowledge.t) : Stats.t =
  let env = make_env ~config ~plan:None w [ mv ] in
  let stats = env.stats in
  let umq = Query_engine.umq w in
  let obs = Query_engine.obs w in
  let sp = Dyno_obs.Obs.spans obs in
  let lin = Dyno_obs.Obs.lineage obs in
  let fresh =
    Freshness.create
      ~metrics:(Dyno_obs.Obs.metrics obs)
      ~mv
      ~registry:(Query_engine.registry w)
      ~queued:(Umq.messages umq) ()
  in
  register_probes env ~umqs:[ umq ] ~trackers:[ fresh ];
  let recover = recover env [ mv ] in
  let iteration mid =
    (match config.strategy with
    | Strategy.Pessimistic -> detect_and_correct ~force:false w [ mv ] stats
    | Strategy.Optimistic | Strategy.Merge_all ->
        (* No pre-exec pass; the flag is left set and ignored. *)
        ());
    let valid = View_def.is_valid (Mat_view.def mv) in
    (* Deferred/grouped maintenance: collapse a prefix of single DUs
       into one transient batch entry.  Taking a queue prefix preserves
       the legal order. *)
    let group_size =
      if config.du_group <= 1 || not valid then 0
      else begin
        let rec count n = function
          | Umq.Single m :: rest
            when Update_msg.is_du m && n < config.du_group ->
              count (n + 1) rest
          | _ -> n
        in
        count 0 (Umq.entries umq)
      end
    in
    if group_size > 1 then begin
      Dyno_obs.Span.set_name sp mid
        (Dyno_obs.Span.namef sp "group of %d" group_size);
      let msgs =
        List.filteri (fun i _ -> i < group_size) (Umq.entries umq)
        |> List.concat_map Umq.entry_messages
      in
      Umq.clear_broken_query_flag umq;
      let t0 = Query_engine.now w in
      let gids = List.map Update_msg.id msgs in
      Dyno_obs.Lineage.dispatch lin ~ids:gids ~time:t0
        ~detail:
          (Dyno_obs.Lineage.detailf lin "dispatched in a grouped sweep of %d"
             group_size)
        ();
      Dyno_obs.Lineage.set_scope lin gids;
      let res =
        Dyno_vm.Vm.maintain_group ~compensate:config.compensate
          ?local:(local env 0) w mv msgs
      in
      settle env ~mid:(Some mid) ~t0 ~ids:gids ~what:"grouped maintenance"
        ~recover
        ~on_done:(fun () ->
          stats.Stats.batches <- stats.Stats.batches + 1;
          stats.Stats.batch_updates <-
            stats.Stats.batch_updates + List.length msgs;
          stats.Stats.view_commits <- stats.Stats.view_commits + 1;
          Freshness.note_entry fresh ~now:(Query_engine.now w) msgs;
          (let state, detail =
             match res with
             | Dyno_vm.Vm.Irrelevant ->
                 ( Dyno_obs.Lineage.Irrelevant,
                   "grouped sweep: no pivot rows in the view" )
             | _ ->
                 ( Dyno_obs.Lineage.Applied,
                   Dyno_obs.Lineage.detailf lin
                     "grouped sweep of %d applied atomically" group_size )
           in
           Dyno_obs.Lineage.finish lin ~ids:gids ~time:(Query_engine.now w)
             ~state ~detail);
          for _ = 1 to group_size do
            Umq.remove_head umq
          done)
        (match res with
        | Dyno_vm.Vm.Unreachable u -> UnreachableStep u
        | Dyno_vm.Vm.Aborted b -> AbortedStep b
        | Dyno_vm.Vm.Refreshed _ | Dyno_vm.Vm.Irrelevant -> Done)
    end
    else
      (* Dependency-parallel dispatch: maintain a whole antichain of the
         corrected topological order concurrently.  Falls through to the
         historical serial path when fewer than two entries qualify, so
         [parallel = 1] is bit-identical to the serial scheduler. *)
      match
        if config.parallel <= 1 || config.vm_mode <> Incremental || not valid
        then []
        else antichain ~width:config.parallel umq
      with
      | _ :: _ :: _ as members -> du_round env ~mid ~fresh ~recover mv members
      | _ -> head_step env ~mid ~fresh ~recover mv mk
  in
  drive env ~is_empty:(fun () -> Umq.is_empty umq) iteration
