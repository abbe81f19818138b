(* Sharded Dyno: see shard_scheduler.mli for the protocol. *)

open Dyno_view
open Dyno_sim

(* Global arrival order: message ids are drawn from one shared counter
   across every shard's queue (Umq.create ~ids), so the minimum id of an
   entry totally orders the union of the queues; the source name breaks
   ties defensively for worlds built without a shared counter. *)
let entry_min_id e =
  match Umq.entry_ids e with
  | [] -> max_int
  | ids -> List.fold_left min max_int ids

let entry_source e =
  match Umq.entry_messages e with [] -> "" | m :: _ -> Update_msg.source m

let compare_arrival a b =
  match compare (entry_min_id a) (entry_min_id b) with
  | 0 -> String.compare (entry_source a) (entry_source b)
  | c -> c

let run ?(config = Run_config.default) ~plan (w : Query_engine.t)
    (mv : Mat_view.t) (mk : Dyno_source.Meta_knowledge.t) : Stats.t =
  let n = Shard.count plan in
  if n <= 1 then Scheduler.run ~config w mv mk
  else begin
    if Query_engine.route_count w <> n then
      invalid_arg
        (Fmt.str "Shard_scheduler.run: %d shard(s) but %d engine route(s)" n
           (Query_engine.route_count w));
    let stats = Stats.create () in
    let umqs = Array.init n (Query_engine.route_umq w) in
    let steps = ref 0 in
    let force_barrier = ref false in
    let trace = Query_engine.trace w in
    let obs = Query_engine.obs w in
    let sp = Dyno_obs.Obs.spans obs
    and mx = Dyno_obs.Obs.metrics obs in
    let lin = Dyno_obs.Obs.lineage obs in
    let now () = Query_engine.now w in
    (* Abort provenance looks for the conflicting SC in the broken
       source's owning shard queue. *)
    let provenance (b : Dyno_source.Data_source.broken) =
      Scheduler.abort_provenance
        umqs.(Shard.owner plan b.Dyno_source.Data_source.source)
        b
    in
    let fresh =
      Freshness.create ~metrics:mx ~mv
        ~registry:(Query_engine.registry w)
        ~queued:(Array.to_list umqs |> List.concat_map Umq.messages)
        ()
    in
    (* Per-shard auxiliary stores.  Every store is a full replica (it
       covers all of the view's join partners, so it must see the whole
       admitted stream to stay current); the per-shard split decides
       which replica a member's maintenance reads, keeping shard-local
       counters honest.  One hook feeds them all. *)
    let stores =
      if config.Run_config.self_maint then begin
        let arr = Array.init n (fun _ -> Scheduler.aux_store w mv) in
        Query_engine.add_admit_hook w (fun m ->
            Array.iter
              (fun s -> Dyno_selfmaint.Aux_store.on_message s m)
              arr);
        Some arr
      end
      else None
    in
    let local_of_shard i =
      Option.map (fun arr -> Dyno_selfmaint.Aux_store.local arr.(i)) stores
    in
    let local_of_source src = local_of_shard (Shard.owner plan src) in
    (* Multicore runtime: one worker-domain pool shared by every shard's
       round compute (the rounds are coordinator-driven and sequential;
       only the per-member sweep compute fans out). *)
    let pool =
      match config.Run_config.runtime with
      | `Simulated -> None
      | `Domains d ->
          Some
            (Domain_pool.create
               ~profiler:(Dyno_obs.Obs.hostprof obs)
               ~domains:d ())
    in
    let series = Dyno_obs.Obs.series obs in
    if Dyno_obs.Timeseries.enabled series then begin
      Dyno_obs.Timeseries.probe series "umq.depth" (fun _ ->
          float_of_int (Array.fold_left (fun a q -> a + Umq.length q) 0 umqs));
      Dyno_obs.Timeseries.probe series "sched.inflight" (fun _ ->
          Dyno_obs.Metrics.gauge_value mx "sched.inflight");
      Dyno_obs.Timeseries.probe series ~kind:`Counter "sched.view_commits"
        (fun _ -> float_of_int stats.Stats.view_commits);
      Dyno_obs.Timeseries.probe series "staleness_s" (fun now ->
          Freshness.staleness_seconds fresh ~now);
      Dyno_obs.Timeseries.probe series "staleness_versions" (fun _ ->
          float_of_int (Freshness.lag_versions fresh));
      Freshness.register_probes fresh series
    end;
    let tick () =
      incr steps;
      if !steps > config.Run_config.max_steps then
        raise (Scheduler.Step_limit_exceeded !steps)
    in
    let clear_broken () = Array.iter Umq.clear_broken_query_flag umqs in
    let owning_umq m = umqs.(Shard.owner plan (Update_msg.source m)) in
    let remove_messages entry =
      (* A corrected entry may merge messages owned by several shards;
         each still sits as its own [Single] in its owning queue. *)
      List.iter
        (fun m -> Umq.remove_entry (owning_umq m) (Umq.Single m))
        (Umq.entry_messages entry)
    in
    let charge_abort b ~t0 ~what =
      let dt = now () -. t0 in
      stats.Stats.busy <- stats.Stats.busy +. dt;
      stats.Stats.abort_cost <- stats.Stats.abort_cost +. dt;
      stats.Stats.aborts <- stats.Stats.aborts + 1;
      stats.Stats.broken_queries <- stats.Stats.broken_queries + 1;
      Trace.recordf trace ~time:(now ()) Trace.Abort
        "%s aborted after %.3f s: %a" what dt
        Dyno_source.Data_source.pp_broken b
    in
    (* Serial fallback (Recompute mode, undefined view, or a non-DU head
       without a raised flag): maintain the globally-oldest head entry
       with the per-entry machinery shared with the serial scheduler. *)
    let serial_step mid =
      let best = ref None in
      Array.iteri
        (fun i q ->
          match Umq.head q with
          | None -> ()
          | Some e -> (
              match !best with
              | Some (_, be, _) when compare_arrival be e <= 0 -> ()
              | _ -> best := Some (i, e, entry_min_id e)))
        umqs;
      match !best with
      | None -> ()
      | Some (qi, entry, _) -> (
          Dyno_obs.Span.set_name sp mid
            (Dyno_obs.Span.namef sp "%a" Umq.pp_entry entry);
          clear_broken ();
          let t0 = now () in
          Dyno_obs.Lineage.dispatch lin ~ids:(Umq.entry_ids entry) ~time:t0
            ~detail:
              (Dyno_obs.Lineage.detailf lin
                 "dispatched at shard %d queue head" qi)
            ();
          match
            Scheduler.maintain_entry ?local:(local_of_shard qi)
              ~compensate:config.Run_config.compensate
              ~vm_mode:config.Run_config.vm_mode w mv mk stats entry
          with
          | Scheduler.Done ->
              Dyno_obs.Span.set_attr sp mid "outcome" "done";
              stats.Stats.busy <- stats.Stats.busy +. (now () -. t0);
              Freshness.note_entry fresh ~now:(now ())
                (Umq.entry_messages entry);
              Umq.remove_head umqs.(qi)
          | Scheduler.UnreachableStep u ->
              Dyno_obs.Span.set_attr sp mid "outcome" "stalled";
              Scheduler.stall_and_wait w stats ~t0 u;
              Dyno_obs.Lineage.stall lin ~ids:(Umq.entry_ids entry)
                ~time:(now ())
                ~detail:
                  (Dyno_obs.Lineage.detailf lin "%a"
                     Dyno_net.Retry.pp_unreachable u)
          | Scheduler.AbortedStep b ->
              Dyno_obs.Span.set_attr sp mid "outcome" "aborted";
              charge_abort b ~t0 ~what:"shard maintenance";
              Dyno_obs.Lineage.abort lin ~ids:(Umq.entry_ids entry)
                ~time:(now ()) ~detail:(provenance b);
              force_barrier := true)
    in
    (* One shard-parallel round: every shard contributes up to
       [config.parallel] single DUs from distinct sources off its queue
       prefix; sweeps run as concurrent executor tasks with exclusion
       sets fixed at dispatch in global arrival order; refreshes commit
       serially at the barrier in that same order, stopping at the first
       failure (later members stay queued and re-sweep next round). *)
    let du_round mid =
      let per_shard = max 1 config.Run_config.parallel in
      let members =
        Array.to_list umqs
        |> List.concat_map (fun q ->
               let rec scan acc k seen = function
                 | Umq.Single m :: rest when Update_msg.is_du m ->
                     if k >= per_shard then List.rev acc
                     else
                       let src = Update_msg.source m in
                       if List.exists (String.equal src) seen then
                         scan acc k seen rest
                       else (
                         match Update_msg.as_du m with
                         | Some u ->
                             scan ((m, u) :: acc) (k + 1) (src :: seen) rest
                         | None -> List.rev acc)
                 | _ -> List.rev acc
               in
               scan [] 0 [] (Umq.entries q))
        |> List.sort (fun (a, _) (b, _) ->
               compare_arrival (Umq.Single a) (Umq.Single b))
      in
      match members with
      | [] -> serial_step mid
      | members -> (
          let k = List.length members in
          Dyno_obs.Span.set_name sp mid
            (Dyno_obs.Span.namef sp "shard round of %d" k);
          Dyno_obs.Metrics.set_gauge mx "sched.inflight" (float_of_int k);
          clear_broken ();
          let t0 = now () in
          List.iter
            (fun (m, _) ->
              Trace.recordf trace ~time:t0 Trace.Maint_start "%a" Umq.pp_entry
                (Umq.Single m))
            members;
          List.iter
            (fun (m, _) ->
              Dyno_obs.Lineage.dispatch lin
                ~ids:[ Update_msg.id m ]
                ~time:t0
                ~detail:
                  (Dyno_obs.Lineage.detailf lin
                     "dispatched into shard round of %d (shard %d)" k
                     (Shard.owner plan (Update_msg.source m)))
                ())
            members;
          let results = Array.make k None in
          let spent = Array.make k 0.0 in
          (* Exclusion sets fixed at dispatch: member [i] must not
             compensate against members earlier in global arrival
             order — they are being maintained concurrently, exactly
             as if a serial pass had already processed them. *)
          let excludes =
            let earlier = ref [] in
            Array.of_list
              (List.map
                 (fun (m, _) ->
                   let e = !earlier in
                   earlier := Update_msg.id m :: !earlier;
                   e)
                 members)
          in
          (* Multicore runtime: fully-covered local sweeps evaluate on
             the worker-domain pool; the rest takes the executor. *)
          (match pool with
          | None -> ()
          | Some pool ->
              let precomputed =
                Scheduler.pool_sweeps ~pool
                  ~compensate:config.Run_config.compensate w stats
                  (Array.of_list
                     (List.mapi
                        (fun i (m, u) ->
                          {
                            Scheduler.pj_mv = mv;
                            pj_msg = m;
                            pj_du = u;
                            pj_applied = [];
                            pj_exclude_extra = excludes.(i);
                            pj_local =
                              local_of_source (Update_msg.source m);
                          })
                        members))
              in
              Array.iteri
                (fun i r ->
                  match r with Some s -> results.(i) <- Some s | None -> ())
                precomputed);
          let thunks =
            List.concat
              (List.mapi
                 (fun i (m, u) ->
                   if results.(i) <> None then []
                   else
                     [
                       (fun () ->
                         Dyno_obs.Span.with_span sp ~now
                           ~thread:(Update_msg.source m) Dyno_obs.Span.Task
                           (Dyno_obs.Span.namef sp "maintain #%d"
                              (Update_msg.id m))
                           (fun _ ->
                             Dyno_obs.Lineage.set_scope lin
                               [ Update_msg.id m ];
                             let ts = now () in
                             results.(i) <-
                               Some
                                 (Dyno_vm.Vm.maintain_sweep
                                    ~compensate:config.Run_config.compensate
                                    ~exclude_extra:excludes.(i)
                                    ?local:
                                      (local_of_source (Update_msg.source m))
                                    w mv m u);
                             spent.(i) <- now () -. ts));
                     ])
                 members)
          in
          Executor.run_all (Query_engine.executor w) thunks;
          List.iteri
            (fun i (m, _) ->
              Dyno_obs.Metrics.add_gauge mx
                (Fmt.str "shard.%d.busy_s"
                   (Shard.owner plan (Update_msg.source m)))
                spent.(i))
            members;
          let failure = ref None in
          List.iteri
            (fun i (m, _) ->
              if !failure <> None then
                Dyno_obs.Lineage.note lin
                  ~ids:[ Update_msg.id m ]
                  ~time:(now ()) ~kind:"requeued"
                  ~detail:
                    "earlier round member failed; sweep discarded, requeued"
              else
                match results.(i) with
                | Some (Dyno_vm.Vm.Swept (dv, s)) -> (
                    match Dyno_vm.Vm.commit_swept w mv m dv s with
                    | Dyno_vm.Vm.Refreshed { stats = s; _ } ->
                        stats.Stats.du_maintained <-
                          stats.Stats.du_maintained + 1;
                        stats.Stats.probes <-
                          stats.Stats.probes + s.Dyno_vm.Sweep.probes;
                        stats.Stats.compensations <-
                          stats.Stats.compensations
                          + s.Dyno_vm.Sweep.compensations;
                        stats.Stats.probes_avoided <-
                          stats.Stats.probes_avoided
                          + s.Dyno_vm.Sweep.probes_avoided;
                        stats.Stats.bytes_saved <-
                          stats.Stats.bytes_saved + s.Dyno_vm.Sweep.bytes_saved;
                        stats.Stats.view_commits <-
                          stats.Stats.view_commits + 1;
                        Freshness.note_entry fresh ~now:(now ()) [ m ];
                        Dyno_obs.Lineage.finish lin
                          ~ids:[ Update_msg.id m ]
                          ~time:(now ()) ~state:Dyno_obs.Lineage.Applied
                          ~detail:
                            (Dyno_obs.Lineage.detailf lin
                               "view refreshed in shard round (%d probe(s), \
                                %d compensation(s))"
                               s.Dyno_vm.Sweep.probes
                               s.Dyno_vm.Sweep.compensations);
                        Umq.remove_entry (owning_umq m) (Umq.Single m)
                    | _ -> assert false)
                | Some Dyno_vm.Vm.Swept_irrelevant ->
                    Mat_view.record_commit mv ~at:(now ())
                      ~maintained:[ Update_msg.id m ];
                    stats.Stats.irrelevant <- stats.Stats.irrelevant + 1;
                    Freshness.note_entry fresh ~now:(now ()) [ m ];
                    Dyno_obs.Lineage.finish lin
                      ~ids:[ Update_msg.id m ]
                      ~time:(now ()) ~state:Dyno_obs.Lineage.Irrelevant
                      ~detail:"no pivot row in the view";
                    Umq.remove_entry (owning_umq m) (Umq.Single m)
                | Some (Dyno_vm.Vm.Swept_aborted b) ->
                    failure := Some (`Aborted (b, m))
                | Some (Dyno_vm.Vm.Swept_unreachable u) ->
                    failure := Some (`Unreachable (u, m))
                | None -> assert false)
            members;
          let elapsed = now () -. t0 in
          Dyno_obs.Metrics.add_gauge mx "net.overlap_saved_s"
            (Float.max 0.0 (Array.fold_left ( +. ) 0.0 spent -. elapsed));
          Dyno_obs.Metrics.set_gauge mx "sched.inflight" 0.0;
          match !failure with
          | None ->
              Dyno_obs.Span.set_attr sp mid "outcome" "done";
              stats.Stats.busy <- stats.Stats.busy +. elapsed
          | Some (`Unreachable (u, m)) ->
              Dyno_obs.Span.set_attr sp mid "outcome" "stalled";
              Scheduler.stall_and_wait w stats ~t0 u;
              Dyno_obs.Lineage.stall lin
                ~ids:[ Update_msg.id m ]
                ~time:(now ())
                ~detail:
                  (Dyno_obs.Lineage.detailf lin "%a"
                     Dyno_net.Retry.pp_unreachable u)
          | Some (`Aborted (b, m)) ->
              Dyno_obs.Span.set_attr sp mid "outcome" "aborted";
              charge_abort b ~t0 ~what:"sharded round";
              Dyno_obs.Lineage.abort lin
                ~ids:[ Update_msg.id m ]
                ~time:(now ()) ~detail:(provenance b);
              force_barrier := true)
    in
    (* Cross-shard barrier: every shard pauses; the union of the queues
       in global arrival order runs through detection + correction, and
       the corrected legal order is maintained serially up to and
       including its last schema change.  The corrected order is
       ephemeral — shard queues are never rewritten; the pure-DU suffix
       resumes parallel draining.  An in-exec abort restarts the pass on
       a fresh snapshot. *)
    let barrier mid =
      Dyno_obs.Span.set_name sp mid "cross-shard barrier";
      stats.Stats.cross_shard_barriers <- stats.Stats.cross_shard_barriers + 1;
      Dyno_obs.Metrics.incr mx "sched.cross_shard_barriers";
      force_barrier := false;
      let rec pass () =
        Array.iter
          (fun q -> ignore (Umq.test_and_clear_schema_change_flag q : bool))
          umqs;
        let snapshot =
          Array.to_list umqs
          |> List.concat_map Umq.entries
          |> List.sort compare_arrival
        in
        if List.exists Umq.entry_has_sc snapshot then begin
          let vd = Mat_view.def mv in
          let cost = Query_engine.cost w in
          let t0 = now () in
          stats.Stats.detections <- stats.Stats.detections + 1;
          let nn = List.length snapshot in
          let m =
            List.length
              (List.filter Update_msg.is_sc
                 (List.concat_map Umq.entry_messages snapshot))
          in
          Query_engine.advance w (Cost_model.detect cost ~n:nn ~m);
          let order, merged_cycles, merged_updates, reordered =
            match config.Run_config.strategy with
            | Strategy.Merge_all ->
                (* The strawman collapses everything it can see — here,
                   the whole cross-shard snapshot — into one batch. *)
                let msgs = List.concat_map Umq.entry_messages snapshot in
                if List.length msgs > 1 then begin
                  Dyno_obs.Lineage.merged lin
                    ~ids:(List.map Update_msg.id msgs)
                    ~time:(now ())
                    ~detail:
                      (Dyno_obs.Lineage.detailf lin
                         "merge-all at cross-shard barrier: %d update(s) \
                          collapsed into one batch"
                         (List.length msgs));
                  ([ Umq.Batch msgs ], 1, List.length msgs, true)
                end
                else (snapshot, 0, 0, false)
            | Strategy.Pessimistic | Strategy.Optimistic ->
                let g =
                  Dep_graph.build (View_def.peek vd) (View_def.schemas vd)
                    snapshot
                in
                if Dyno_obs.Lineage.enabled lin then
                  List.iter
                    (fun e ->
                      Dyno_obs.Lineage.edge lin
                        ~dep_ids:(Dep_graph.edge_dependent_ids g e)
                        ~time:(now ())
                        ~detail:(Dep_graph.describe_edge g e))
                    (Dep_graph.unsafe g);
                let r = Dep_graph.correct g in
                List.iter
                  (fun ids ->
                    Dyno_obs.Lineage.merged lin ~ids ~time:(now ())
                      ~detail:
                        (Dyno_obs.Lineage.detailf lin
                           "dependency cycle merged at cross-shard barrier: \
                            %d update(s) now one batch"
                           (List.length ids)))
                  r.Dep_graph.merged_members;
                Query_engine.advance w
                  (Cost_model.correct cost ~nodes:(Dep_graph.size g)
                     ~edges:(List.length (Dep_graph.edges g)));
                ( r.Dep_graph.order,
                  r.Dep_graph.merged_cycles,
                  r.Dep_graph.merged_updates,
                  List.concat_map Umq.entry_ids r.Dep_graph.order
                  <> List.concat_map Umq.entry_ids snapshot )
          in
          if reordered then begin
            stats.Stats.corrections <- stats.Stats.corrections + 1;
            Trace.recordf trace ~time:(now ()) Trace.Correct
              "cross-shard barrier: legal order over %d entr%s" nn
              (if nn = 1 then "y" else "ies")
          end;
          if merged_cycles > 0 then begin
            stats.Stats.merges <- stats.Stats.merges + merged_cycles;
            Trace.recordf trace ~time:(now ()) Trace.Merge
              "%d cycle(s) merged (%d update(s))" merged_cycles merged_updates
          end;
          stats.Stats.busy <- stats.Stats.busy +. (now () -. t0);
          let last_sc =
            List.fold_left
              (fun (i, last) e ->
                (i + 1, if Umq.entry_has_sc e then i else last))
              (0, -1) order
            |> snd
          in
          let prefix = List.filteri (fun i _ -> i <= last_sc) order in
          let restart = ref false in
          let rec process = function
            | [] -> ()
            | entry :: rest -> (
                tick ();
                clear_broken ();
                let t0 = now () in
                Dyno_obs.Lineage.dispatch lin ~ids:(Umq.entry_ids entry)
                  ~time:t0 ~seg:Dyno_obs.Lineage.Barrier
                  ~detail:"dispatched from cross-shard barrier drain" ();
                match
                  Scheduler.maintain_entry
                    ?local:(local_of_source (entry_source entry))
                    ~compensate:config.Run_config.compensate
                    ~vm_mode:config.Run_config.vm_mode w mv mk stats entry
                with
                | Scheduler.Done ->
                    stats.Stats.busy <- stats.Stats.busy +. (now () -. t0);
                    Freshness.note_entry fresh ~now:(now ())
                      (Umq.entry_messages entry);
                    remove_messages entry;
                    process rest
                | Scheduler.UnreachableStep u ->
                    Scheduler.stall_and_wait w stats ~t0 u;
                    Dyno_obs.Lineage.stall lin ~ids:(Umq.entry_ids entry)
                      ~time:(now ())
                      ~detail:
                        (Dyno_obs.Lineage.detailf lin "%a"
                           Dyno_net.Retry.pp_unreachable u);
                    process (entry :: rest)
                | Scheduler.AbortedStep b ->
                    charge_abort b ~t0 ~what:"barrier maintenance";
                    Dyno_obs.Lineage.abort lin ~ids:(Umq.entry_ids entry)
                      ~time:(now ()) ~detail:(provenance b);
                    restart := true)
          in
          process prefix;
          if !restart then pass ()
        end
      in
      pass ()
    in
    let all_empty () = Array.for_all Umq.is_empty umqs in
    let iteration mid =
      if !force_barrier || Array.exists Umq.peek_schema_change_flag umqs then
        barrier mid
      else if
        config.Run_config.vm_mode <> Run_config.Incremental
        || not (View_def.is_valid (Mat_view.def mv))
      then serial_step mid
      else du_round mid
    in
    let rec loop () =
      tick ();
      Query_engine.deliver_due w;
      (match stores with
      | Some arr -> Array.iter (fun s -> Scheduler.sync_aux w s mv) arr
      | None -> ());
      ignore (Dyno_obs.Timeseries.maybe_sample series ~now:(now ()) : bool);
      if all_empty () then begin
        match Query_engine.next_wakeup w with
        | None -> ()
        | Some t ->
            let dt = t -. now () in
            if dt > 0.0 then stats.Stats.idle <- stats.Stats.idle +. dt;
            Query_engine.idle_until w t;
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
        Option.iter Domain_pool.shutdown pool;
        Scheduler.drain_hostprof w)
      loop;
    Dyno_obs.Timeseries.sample series ~now:(now ());
    stats.Stats.end_time <- now ();
    Scheduler.record_net_stats w stats;
    Scheduler.mirror_stats obs stats;
    Scheduler.mirror_trace_dropped w;
    if Dyno_obs.Metrics.enabled mx then begin
      Dyno_obs.Metrics.set_gauge mx "sched.shards" (float_of_int n);
      Dyno_obs.Metrics.set_counter mx "sched.cross_shard_barriers"
        stats.Stats.cross_shard_barriers
    end;
    stats
  end
