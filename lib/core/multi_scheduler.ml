(** Multi-view Dyno: one update stream, several materialized views.

    The paper frames Dyno for a single view but notes it "has the
    potential to be plugged into any view system"; this module is that
    extension.  One UMQ and one dependency-correction pipeline serve a
    {e set} of views:

    - a schema change induces concurrent dependencies as soon as it
      conflicts with {e any} view ({!Dep_graph.build_many}), so the legal
      order is legal for every view at once;
    - the head entry is maintained against each view in turn.  If a later
      view's maintenance breaks, the entry stays queued while the earlier
      views have already committed it — so the scheduler tracks, per view,
      the set of {e applied} message ids still in the queue: on retry (or
      after the entry is merged into a larger batch) each view maintains
      only the messages it has not yet applied, and compensation is told
      to keep the applied ones in ([~applied]).

    Statistics are aggregated across views; per-view consistency is
    checked with the ordinary {!Consistency} tools against each view's own
    commit log. *)

open Dyno_view
open Dyno_sim

type view_state = {
  mv : Mat_view.t;
  mutable applied : int list;  (** queued message ids already integrated *)
}

type t = { views : view_state list }

let create mvs = { views = List.map (fun mv -> { mv; applied = [] }) mvs }

let views t = List.map (fun v -> v.mv) t.views

(* Detection + correction against all views at once. *)
let detect_and_correct ~(force : bool) (w : Query_engine.t) (t : t)
    (stats : Stats.t) : unit =
  let umq = Query_engine.umq w in
  let cost = Query_engine.cost w in
  let t0 = Query_engine.now w in
  let fired =
    if force then begin
      ignore (Umq.test_and_clear_schema_change_flag umq);
      true
    end
    else Umq.test_and_clear_schema_change_flag umq
  in
  if not fired then Query_engine.advance w cost.Cost_model.detect_flag
  else begin
    let obs = Query_engine.obs w in
    let sp = Dyno_obs.Obs.spans obs
    and mx = Dyno_obs.Obs.metrics obs in
    let now () = Query_engine.now w in
    let view_specs =
      List.filter_map
        (fun v ->
          let vd = Mat_view.def v.mv in
          if View_def.is_valid vd then
            Some (View_def.peek vd, View_def.schemas vd)
          else None)
        t.views
    in
    let g =
      Dyno_obs.Span.with_span sp ~now Dyno_obs.Span.Detect
        (Dyno_obs.Span.namef sp "detect over %d view(s)"
           (List.length view_specs))
        (fun _ ->
          let td = now () in
          let g = Dep_graph.build_many view_specs (Umq.entries umq) in
          stats.Stats.detections <- stats.Stats.detections + 1;
          let n = Dep_graph.size g in
          let m =
            List.length (List.filter Update_msg.is_sc (Umq.messages umq))
          in
          Query_engine.advance w
            (Cost_model.detect cost ~n:(n * max 1 (List.length view_specs)) ~m);
          Dyno_obs.Metrics.observe mx "detect.pass_s" (now () -. td);
          g)
    in
    Dyno_obs.Span.with_span sp ~now Dyno_obs.Span.Correct "correct"
      (fun _ ->
        let tc = now () in
        let lin = Dyno_obs.Obs.lineage obs in
        if Dyno_obs.Lineage.enabled lin then
          List.iter
            (fun e ->
              Dyno_obs.Lineage.edge lin
                ~dep_ids:(Dep_graph.edge_dependent_ids g e)
                ~time:tc ~detail:(Dep_graph.describe_edge g e))
            (Dep_graph.unsafe g);
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
        Dyno_obs.Metrics.observe mx "correct.pass_s" (now () -. tc);
        if r.Correct.reordered then
          stats.Stats.corrections <- stats.Stats.corrections + 1;
        if r.Correct.merged_cycles > 0 then
          stats.Stats.merges <- stats.Stats.merges + r.Correct.merged_cycles)
  end;
  stats.Stats.busy <- stats.Stats.busy +. (Query_engine.now w -. t0)

(* Maintain one entry against one view, skipping already-applied msgs. *)
let maintain_for_view ?local ~compensate (w : Query_engine.t)
    (mk : Dyno_source.Meta_knowledge.t) (stats : Stats.t) (v : view_state)
    (entry : Umq.entry) : (unit, Query_engine.failure) result =
  let vd = Mat_view.def v.mv in
  let todo =
    List.filter
      (fun m -> not (List.mem (Update_msg.id m) v.applied))
      (Umq.entry_messages entry)
  in
  if todo = [] || not (View_def.is_valid vd) then Ok ()
  else
    let outcome =
      match todo with
      | [ m ] when Update_msg.is_du m -> (
          match Update_msg.as_du m with
          | Some u -> (
              match
                Dyno_vm.Vm.maintain ~compensate ~applied:v.applied ?local w
                  v.mv m u
              with
              | Dyno_vm.Vm.Refreshed { stats = s; _ } ->
                  stats.Stats.du_maintained <- stats.Stats.du_maintained + 1;
                  stats.Stats.probes <- stats.Stats.probes + s.Dyno_vm.Sweep.probes;
                  stats.Stats.probes_avoided <-
                    stats.Stats.probes_avoided + s.Dyno_vm.Sweep.probes_avoided;
                  stats.Stats.bytes_saved <-
                    stats.Stats.bytes_saved + s.Dyno_vm.Sweep.bytes_saved;
                  stats.Stats.view_commits <- stats.Stats.view_commits + 1;
                  Ok ()
              | Dyno_vm.Vm.Irrelevant ->
                  stats.Stats.irrelevant <- stats.Stats.irrelevant + 1;
                  Ok ()
              | Dyno_vm.Vm.Aborted b -> Error (Query_engine.Broken b)
              | Dyno_vm.Vm.Unreachable u ->
                  Error (Query_engine.Unreachable u))
          | None -> Ok ())
      | msgs -> (
          match Dyno_va.Batch.maintain ~applied:v.applied w v.mv mk msgs with
          | Dyno_va.Batch.Adapted ->
              (if List.exists Update_msg.is_sc msgs then
                 if List.length msgs > 1 then begin
                   stats.Stats.batches <- stats.Stats.batches + 1;
                   stats.Stats.batch_updates <-
                     stats.Stats.batch_updates + List.length msgs
                 end
                 else stats.Stats.sc_maintained <- stats.Stats.sc_maintained + 1);
              stats.Stats.view_commits <- stats.Stats.view_commits + 1;
              Ok ()
          | Dyno_va.Batch.Aborted b -> Error (Query_engine.Broken b)
          | Dyno_va.Batch.Unreachable u -> Error (Query_engine.Unreachable u)
          | Dyno_va.Batch.View_undefined _ ->
              stats.Stats.view_undefined <- true;
              Ok ())
    in
    match outcome with
    | Ok () ->
        v.applied <- List.map Update_msg.id todo @ v.applied;
        Ok ()
    | Error f -> Error f

(** The shared {!Run_config.t} record.  This scheduler consumes
    [strategy], [max_steps], [compensate] and [parallel] (per-view sweep
    overlap of a single-DU head entry, committing serially at the barrier
    in view order); [vm_mode] and [du_group] are ignored — the multi-view
    path always maintains incrementally, one entry at a time. *)
type config = Run_config.t = {
  strategy : Strategy.t;
  max_steps : int;
  compensate : bool;
  vm_mode : Run_config.vm_mode;
  du_group : int;
  parallel : int;
  self_maint : bool;
  runtime : [ `Simulated | `Domains of int ];
}

let default_config = Run_config.default

(* Per-view concurrent maintenance of one single-DU entry: the sweeps for
   distinct views are independent (each view has its own extent and
   commit log), so their probe round trips overlap on executor tasks;
   the refreshes commit serially at the barrier, in view order, stopping
   at the first failure.  Earlier views keep their commits — [applied]
   remembers them for the retry, exactly as in the serial loop. *)
let parallel_views ?(local_for = fun _ -> None) ?pool ~compensate
    (w : Query_engine.t) (stats : Stats.t) (vs : view_state list)
    (m : Update_msg.t) (u : Dyno_relational.Update.t) :
    (unit, Query_engine.failure) result =
  let obs = Query_engine.obs w in
  let sp = Dyno_obs.Obs.spans obs
  and mx = Dyno_obs.Obs.metrics obs in
  let exec = Query_engine.executor w in
  let k = List.length vs in
  Dyno_obs.Metrics.set_gauge mx "sched.inflight" (float_of_int k);
  Dyno_obs.Metrics.observe mx "sched.antichain_size" (float_of_int k);
  let t0 = Query_engine.now w in
  let results = Array.make k None in
  let spent = Array.make k 0.0 in
  (* Multicore runtime: fully-covered per-view local sweeps evaluate on
     the worker-domain pool; the rest takes the executor.  The per-view
     sweeps are independent (each view has its own extent and commit
     log) and no exclusion set is needed: a single shared update is
     being maintained, not an antichain. *)
  (match pool with
  | None -> ()
  | Some pool ->
      let precomputed =
        Scheduler.pool_sweeps ~pool ~compensate w stats
          (Array.of_list
             (List.map
                (fun v ->
                  {
                    Scheduler.pj_mv = v.mv;
                    pj_msg = m;
                    pj_du = u;
                    pj_applied = v.applied;
                    pj_exclude_extra = [];
                    pj_local = local_for v;
                  })
                vs))
      in
      Array.iteri
        (fun i r ->
          match r with Some s -> results.(i) <- Some s | None -> ())
        precomputed);
  let thunks =
    List.concat
      (List.mapi
         (fun i v ->
           if results.(i) <> None then []
           else
             [
               (fun () ->
                 Dyno_obs.Span.with_span sp
                   ~now:(fun () -> Query_engine.now w)
                   ~thread:(Dyno_obs.Span.namef sp "view-%d" i)
                   Dyno_obs.Span.Task
                   (Dyno_obs.Span.namef sp "maintain #%d" (Update_msg.id m))
                   (fun _ ->
                     Dyno_obs.Lineage.set_scope
                       (Dyno_obs.Obs.lineage obs)
                       [ Update_msg.id m ];
                     let ts = Query_engine.now w in
                     results.(i) <-
                       Some
                         (Dyno_vm.Vm.maintain_sweep ~compensate
                            ~applied:v.applied ?local:(local_for v) w v.mv m
                            u);
                     spent.(i) <- Query_engine.now w -. ts));
             ])
         vs)
  in
  Executor.run_all exec thunks;
  let failure = ref None in
  List.iteri
    (fun i v ->
      if !failure = None then
        match results.(i) with
        | Some (Dyno_vm.Vm.Swept (dv, s)) -> (
            match Dyno_vm.Vm.commit_swept w v.mv m dv s with
            | Dyno_vm.Vm.Refreshed { stats = s; _ } ->
                stats.Stats.du_maintained <- stats.Stats.du_maintained + 1;
                stats.Stats.probes <-
                  stats.Stats.probes + s.Dyno_vm.Sweep.probes;
                stats.Stats.probes_avoided <-
                  stats.Stats.probes_avoided + s.Dyno_vm.Sweep.probes_avoided;
                stats.Stats.bytes_saved <-
                  stats.Stats.bytes_saved + s.Dyno_vm.Sweep.bytes_saved;
                stats.Stats.view_commits <- stats.Stats.view_commits + 1;
                v.applied <- Update_msg.id m :: v.applied
            | _ -> assert false)
        | Some Dyno_vm.Vm.Swept_irrelevant ->
            Mat_view.record_commit v.mv ~at:(Query_engine.now w)
              ~maintained:[ Update_msg.id m ];
            stats.Stats.irrelevant <- stats.Stats.irrelevant + 1;
            v.applied <- Update_msg.id m :: v.applied
        | Some (Dyno_vm.Vm.Swept_aborted b) ->
            failure := Some (Query_engine.Broken b)
        | Some (Dyno_vm.Vm.Swept_unreachable u) ->
            failure := Some (Query_engine.Unreachable u)
        | None -> assert false)
    vs;
  let elapsed = Query_engine.now w -. t0 in
  Dyno_obs.Metrics.add_gauge mx "net.overlap_saved_s"
    (Float.max 0.0 (Array.fold_left ( +. ) 0.0 spent -. elapsed));
  Dyno_obs.Metrics.set_gauge mx "sched.inflight" 0.0;
  match !failure with None -> Ok () | Some f -> Error f

(** [run ?config w t mk] — the multi-view Dyno loop: drains the UMQ and
    the timeline, maintaining every entry against every view. *)
let run ?(config = default_config) (w : Query_engine.t) (t : t)
    (mk : Dyno_source.Meta_knowledge.t) : Stats.t =
  let stats = Stats.create () in
  let umq = Query_engine.umq w in
  let steps = ref 0 in
  let trace = Query_engine.trace w in
  let obs = Query_engine.obs w in
  let sp = Dyno_obs.Obs.spans obs in
  let lin = Dyno_obs.Obs.lineage obs in
  let now () = Query_engine.now w in
  (* One auxiliary-view store per view: each view has its own join
     partners and coverage, so the stores are independent even though
     they all ride the same admitted stream. *)
  let stores =
    if config.self_maint then
      List.map
        (fun v ->
          let s = Scheduler.aux_store w v.mv in
          Query_engine.add_admit_hook w (Dyno_selfmaint.Aux_store.on_message s);
          (v, s))
        t.views
    else []
  in
  let local_for v =
    Option.map Dyno_selfmaint.Aux_store.local (List.assq_opt v stores)
  in
  (* Multicore runtime: one worker-domain pool for the run's per-view
     round compute. *)
  let pool =
    match config.runtime with
    | `Simulated -> None
    | `Domains d ->
        Some
          (Dyno_sim.Domain_pool.create
             ~profiler:(Dyno_obs.Obs.hostprof obs)
             ~domains:d ())
  in
  (* One freshness tracker per view.  Frontiers are advanced only when an
     entry has been integrated by {e every} view (the Ok branch below) —
     a partially-applied entry still counts as unapplied lag for the
     views that already committed it, which is the conservative reading. *)
  let trackers =
    List.map
      (fun v ->
        ( v,
          Freshness.create
            ~metrics:(Dyno_obs.Obs.metrics obs)
            ~mv:v.mv
            ~registry:(Query_engine.registry w)
            ~queued:(Umq.messages umq) () ))
      t.views
  in
  let series = Dyno_obs.Obs.series obs in
  if Dyno_obs.Timeseries.enabled series then begin
    let mx = Dyno_obs.Obs.metrics obs in
    Dyno_obs.Timeseries.probe series "umq.depth" (fun _ ->
        float_of_int (List.length (Umq.entries umq)));
    Dyno_obs.Timeseries.probe series "sched.inflight" (fun _ ->
        Dyno_obs.Metrics.gauge_value mx "sched.inflight");
    Dyno_obs.Timeseries.probe series ~kind:`Counter "sched.view_commits"
      (fun _ -> float_of_int stats.Stats.view_commits);
    Dyno_obs.Timeseries.probe series ~kind:`Counter "sched.aborts" (fun _ ->
        float_of_int stats.Stats.aborts);
    Dyno_obs.Timeseries.probe series ~kind:`Counter "net.retries" (fun _ ->
        float_of_int (Query_engine.net_retries w));
    (* Aggregate = the worst (most stale) view. *)
    Dyno_obs.Timeseries.probe series "staleness_s" (fun now ->
        List.fold_left
          (fun acc (_, f) ->
            Float.max acc (Freshness.staleness_seconds f ~now))
          0.0 trackers);
    Dyno_obs.Timeseries.probe series "staleness_versions" (fun _ ->
        float_of_int
          (List.fold_left
             (fun acc (_, f) -> max acc (Freshness.lag_versions f))
             0 trackers));
    List.iter (fun (_, f) -> Freshness.register_probes f series) trackers
  end;
  (* Iteration body inside a [Maintain] span; as in {!Scheduler.run},
     every clock advance here is charged to [Stats.busy], so Σ maintain
     span durations = busy. *)
  let iteration mid =
    (match config.strategy with
    | Strategy.Pessimistic -> detect_and_correct ~force:false w t stats
    | Strategy.Optimistic | Strategy.Merge_all -> ());
    match Umq.head umq with
    | None -> ()
    | Some entry -> (
        Dyno_obs.Span.set_name sp mid
          (Dyno_obs.Span.namef sp "%a" Umq.pp_entry entry);
        Umq.clear_broken_query_flag umq;
        let t0 = Query_engine.now w in
        let eids = Umq.entry_ids entry in
        Dyno_obs.Lineage.dispatch lin ~ids:eids ~time:t0
          ~detail:
            (Dyno_obs.Lineage.detailf lin
               "dispatched at queue head (%d view(s))" (List.length t.views))
          ();
        (* Serial view-by-view probes charge the head entry's updates. *)
        Dyno_obs.Lineage.set_scope lin eids;
        let rec maintain_views = function
          | [] -> Ok ()
          | v :: rest -> (
              match
                maintain_for_view ?local:(local_for v)
                  ~compensate:config.compensate w mk stats v entry
              with
              | Ok () -> maintain_views rest
              | Error f -> Error f)
        in
        (* With [parallel > 1] a single-DU entry's sweeps run for all
           eligible views concurrently (capped at [parallel]; any
           remainder — and every other entry shape — takes the serial
           view-by-view path, which skips already-applied views). *)
        let outcome =
          match entry with
          | Umq.Single m when config.parallel > 1 && Update_msg.is_du m -> (
              match Update_msg.as_du m with
              | Some u -> (
                  let eligible =
                    List.filter
                      (fun v ->
                        View_def.is_valid (Mat_view.def v.mv)
                        && not (List.mem (Update_msg.id m) v.applied))
                      t.views
                  in
                  if List.length eligible < 2 then maintain_views t.views
                  else
                    let chunk =
                      List.filteri (fun i _ -> i < config.parallel) eligible
                    in
                    match
                      parallel_views ~local_for ?pool
                        ~compensate:config.compensate w stats chunk m u
                    with
                    | Ok () -> maintain_views t.views
                    | Error f -> Error f)
              | None -> maintain_views t.views)
          | _ -> maintain_views t.views
        in
        match outcome with
        | Ok () ->
            Dyno_obs.Span.set_attr sp mid "outcome" "done";
            stats.Stats.busy <-
              stats.Stats.busy +. (Query_engine.now w -. t0);
            (* Entry fully integrated everywhere: dequeue and drop its
               ids from the applied sets (they can never reappear). *)
            let msgs = Umq.entry_messages entry in
            List.iter
              (fun (_, f) ->
                Freshness.note_entry f ~now:(Query_engine.now w) msgs)
              trackers;
            Dyno_obs.Lineage.finish lin ~ids:eids ~time:(Query_engine.now w)
              ~state:Dyno_obs.Lineage.Applied
              ~detail:
                (Dyno_obs.Lineage.detailf lin "integrated by all %d view(s)"
                   (List.length t.views));
            List.iter
              (fun v ->
                v.applied <-
                  List.filter (fun id -> not (List.mem id eids)) v.applied)
              t.views;
            Umq.remove_head umq
        | Error (Query_engine.Unreachable u) ->
            (* Transient transport failure: the partially-applied entry
               stays queued ([applied] remembers which views already
               integrated it); wait out the outage and retry.  No abort,
               no correction — the queue order is not the problem. *)
            Dyno_obs.Span.set_attr sp mid "outcome" "stalled";
            let dt = Query_engine.now w -. t0 in
            stats.Stats.busy <- stats.Stats.busy +. dt;
            stats.Stats.net_stalls <- stats.Stats.net_stalls + 1;
            Dyno_obs.Metrics.incr (Dyno_obs.Obs.metrics obs) "net.stalls";
            Trace.recordf trace ~time:(Query_engine.now w) Trace.Outage
              "multi-view maintenance stalled: %a; waiting for recovery"
              Dyno_net.Retry.pp_unreachable u;
            let waited =
              Dyno_obs.Span.with_span sp ~now Dyno_obs.Span.Stall
                (Dyno_obs.Span.namef sp "stall on %s" u.Dyno_net.Retry.source)
                (fun _ ->
                  Query_engine.await_recovery w
                    ~source:u.Dyno_net.Retry.source)
            in
            stats.Stats.busy <- stats.Stats.busy +. waited;
            Dyno_obs.Lineage.stall lin ~ids:eids ~time:(Query_engine.now w)
              ~detail:
                (Dyno_obs.Lineage.detailf lin "%a"
                   Dyno_net.Retry.pp_unreachable u)
        | Error (Query_engine.Broken b) ->
            let dt = Query_engine.now w -. t0 in
            stats.Stats.busy <- stats.Stats.busy +. dt;
            stats.Stats.abort_cost <- stats.Stats.abort_cost +. dt;
            stats.Stats.aborts <- stats.Stats.aborts + 1;
            stats.Stats.broken_queries <- stats.Stats.broken_queries + 1;
            Dyno_obs.Span.set_attr sp mid "outcome" "aborted";
            Dyno_obs.Span.set_attr sp mid "abort_s"
              (Dyno_obs.Span.namef sp "%.17g" dt);
            Trace.recordf trace ~time:(Query_engine.now w) Trace.Abort
              "multi-view maintenance aborted: %a"
              Dyno_source.Data_source.pp_broken b;
            Dyno_obs.Lineage.abort lin ~ids:eids ~time:(Query_engine.now w)
              ~detail:(Scheduler.abort_provenance umq b);
            (match config.strategy with
            | Strategy.Pessimistic ->
                if not (Umq.peek_schema_change_flag umq) then
                  detect_and_correct ~force:true w t stats
            | Strategy.Optimistic -> detect_and_correct ~force:true w t stats
            | Strategy.Merge_all ->
                let r = Correct.merge_all umq in
                if r.Correct.reordered then begin
                  stats.Stats.corrections <- stats.Stats.corrections + 1;
                  stats.Stats.merges <- stats.Stats.merges + 1;
                  Scheduler.note_merge_all lin ~time:(Query_engine.now w) r
                end))
  in
  let rec loop () =
    incr steps;
    if !steps > config.max_steps then
      raise (Scheduler.Step_limit_exceeded !steps);
    Query_engine.deliver_due w;
    List.iter (fun (v, s) -> Scheduler.sync_aux w s v.mv) stores;
    ignore
      (Dyno_obs.Timeseries.maybe_sample series ~now:(Query_engine.now w)
        : bool);
    if Umq.is_empty umq then begin
      (* Wake for the next commit or the next in-flight message arrival. *)
      match Query_engine.next_wakeup w with
      | None -> ()
      | Some tm ->
          let dt = tm -. Query_engine.now w in
          if dt > 0.0 then stats.Stats.idle <- stats.Stats.idle +. dt;
          Query_engine.idle_until w tm;
          loop ()
    end
    else begin
      Dyno_obs.Span.with_span sp ~now Dyno_obs.Span.Maintain
        (Dyno_obs.Span.namef sp "step %d" !steps)
        iteration;
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Dyno_sim.Domain_pool.shutdown pool;
      Scheduler.drain_hostprof w)
    loop;
  Dyno_obs.Timeseries.sample series ~now:(Query_engine.now w);
  stats.Stats.end_time <- Query_engine.now w;
  Scheduler.record_net_stats w stats;
  Scheduler.mirror_stats obs stats;
  Scheduler.mirror_trace_dropped w;
  stats
