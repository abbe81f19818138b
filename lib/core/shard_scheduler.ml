(* Sharded Dyno: see shard_scheduler.mli for the protocol. *)

open Dyno_view
open Dyno_sim

let run ?(config = Run_config.default) ~plan (w : Query_engine.t)
    (mv : Mat_view.t) (mk : Dyno_source.Meta_knowledge.t) : Stats.t =
  let n = Shard.count plan in
  if n <= 1 then Scheduler.run ~config w mv mk
  else begin
    if Query_engine.route_count w <> n then
      invalid_arg
        (Fmt.str "Shard_scheduler.run: %d shard(s) but %d engine route(s)" n
           (Query_engine.route_count w));
    (* Per-shard auxiliary stores.  Every store is a full replica (it
       covers all of the view's join partners, so it must see the whole
       admitted stream to stay current); the per-shard split decides
       which replica a member's maintenance reads, keeping shard-local
       counters honest. *)
    let env =
      Scheduler.make_env ~config ~plan:(Some plan) w (List.init n (fun _ -> mv))
    in
    let stats = env.Scheduler.stats in
    let umqs = Array.init n (Query_engine.route_umq w) in
    let force_barrier = ref false in
    let trace = Query_engine.trace w in
    let obs = Query_engine.obs w in
    let sp = Dyno_obs.Obs.spans obs
    and mx = Dyno_obs.Obs.metrics obs in
    let lin = Dyno_obs.Obs.lineage obs in
    let now () = Query_engine.now w in
    let fresh =
      Freshness.create ~metrics:mx ~mv
        ~registry:(Query_engine.registry w)
        ~queued:(Array.to_list umqs |> List.concat_map Umq.messages)
        ()
    in
    Scheduler.register_probes env ~umqs:(Array.to_list umqs)
      ~trackers:[ fresh ];
    (* An abort anywhere outside the barrier raises it: the conflicting
       schema change may sit on another shard's queue. *)
    let recover () = force_barrier := true in
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
          |> List.sort Scheduler.compare_arrival
        in
        if List.exists Umq.entry_has_sc snapshot then begin
          let vd = Mat_view.def mv in
          let cost = Query_engine.cost w in
          let t0 = now () in
          stats.Stats.detections <- stats.Stats.detections + 1;
          let nn = List.length snapshot in
          let msgs = List.concat_map Umq.entry_messages snapshot in
          let m = List.length (List.filter Update_msg.is_sc msgs) in
          (* Merge-all orders nothing: it collapses the whole snapshot. *)
          let g =
            match config.Run_config.strategy with
            | Strategy.Merge_all -> None
            | Strategy.Pessimistic | Strategy.Optimistic ->
                Some
                  (Dep_graph.build (View_def.peek vd) (View_def.schemas vd)
                     snapshot)
          in
          Scheduler.detect_pass w ~nodes:nn (Cost_model.detect cost ~n:nn ~m);
          (match g with
          | Some g ->
              Trace.recordf trace ~time:(now ()) Trace.Detect
                "cross-shard barrier graph: %d node(s), %d edge(s), %d unsafe"
                (Dep_graph.size g)
                (List.length (Dep_graph.edges g))
                (Dep_graph.unsafe_count g)
          | None ->
              Trace.recordf trace ~time:(now ()) Trace.Detect
                "cross-shard barrier: %d entr%s, %d schema change(s)" nn
                (if nn = 1 then "y" else "ies")
                m);
          let order =
            Scheduler.correct_pass w (fun tc ->
                let order, merged_cycles, merged_updates, reordered =
                  match g with
                  | None ->
                      (* The strawman collapses everything it can see —
                         here, the whole cross-shard snapshot — into one
                         batch. *)
                      if List.length msgs > 1 then begin
                        Dyno_obs.Lineage.merged lin
                          ~ids:(List.map Update_msg.id msgs)
                          ~time:tc
                          ~detail:
                            (Dyno_obs.Lineage.detailf lin
                               "merge-all at cross-shard barrier: %d \
                                update(s) collapsed into one batch"
                               (List.length msgs));
                        ([ Umq.Batch msgs ], 1, List.length msgs, true)
                      end
                      else (snapshot, 0, 0, false)
                  | Some g ->
                      Scheduler.edge_provenance lin ~time:tc g;
                      let r = Dep_graph.correct g in
                      List.iter
                        (fun ids ->
                          Dyno_obs.Lineage.merged lin ~ids ~time:tc
                            ~detail:
                              (Dyno_obs.Lineage.detailf lin
                                 "dependency cycle merged at cross-shard \
                                  barrier: %d update(s) now one batch"
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
                Scheduler.note_merges w stats ~merged_cycles ~merged_updates;
                (reordered, order))
          in
          stats.Stats.busy <- stats.Stats.busy +. (now () -. t0);
          let last_sc =
            List.fold_left
              (fun (i, last) e ->
                (i + 1, if Umq.entry_has_sc e then i else last))
              (0, -1) order
            |> snd
          in
          let rec process = function
            | [] -> ()
            | entry :: rest -> (
                Scheduler.tick env;
                Array.iter Umq.clear_broken_query_flag umqs;
                let t0 = now () in
                let ids = Umq.entry_ids entry in
                Dyno_obs.Lineage.dispatch lin ~ids ~time:t0
                  ~seg:Dyno_obs.Lineage.Barrier
                  ~detail:"dispatched from cross-shard barrier drain" ();
                let first = List.hd (Umq.entry_messages entry) in
                let outcome =
                  Scheduler.maintain_entry
                    ?local:
                      (Scheduler.local env
                         (Shard.owner plan (Update_msg.source first)))
                    ~compensate:config.Run_config.compensate
                    ~vm_mode:config.Run_config.vm_mode w mv mk stats entry
                in
                (* A corrected entry may merge messages owned by several
                   shards; each still sits as its own [Single] in its
                   owning queue. *)
                Scheduler.settle env ~mid:None ~t0 ~ids
                  ~what:"barrier maintenance" ~recover:ignore
                  ~on_done:(fun () ->
                    Freshness.note_entry fresh ~now:(now ())
                      (Umq.entry_messages entry);
                    List.iter
                      (fun m ->
                        Umq.remove_entry
                          umqs.(Shard.owner plan (Update_msg.source m))
                          (Umq.Single m))
                      (Umq.entry_messages entry))
                  outcome;
                match outcome with
                | Scheduler.Done -> process rest
                | Scheduler.UnreachableStep _ -> process (entry :: rest)
                | Scheduler.AbortedStep _ -> pass ())
          in
          process (List.filteri (fun i _ -> i <= last_sc) order)
        end
      in
      pass ()
    in
    let iteration mid =
      if !force_barrier || Array.exists Umq.peek_schema_change_flag umqs then
        barrier mid
      else
        (* Every shard contributes up to [config.parallel] single DUs
           from distinct sources off its queue prefix, merged into
           global arrival order; the serial path takes Recompute mode,
           an undefined view, and a non-DU head without a raised flag. *)
        match
          if
            config.Run_config.vm_mode <> Run_config.Incremental
            || not (View_def.is_valid (Mat_view.def mv))
          then []
          else
            Array.to_list umqs
            |> List.concat_map
                 (Scheduler.antichain ~width:(max 1 config.Run_config.parallel))
            |> List.sort (fun (a, _) (b, _) ->
                   Scheduler.compare_arrival (Umq.Single a) (Umq.Single b))
        with
        | [] -> Scheduler.head_step env ~mid ~fresh ~recover mv mk
        | members -> Scheduler.du_round env ~mid ~fresh ~recover mv members
    in
    let stats =
      Scheduler.drive env
        ~is_empty:(fun () -> Array.for_all Umq.is_empty umqs)
        iteration
    in
    if Dyno_obs.Metrics.enabled mx then begin
      Dyno_obs.Metrics.set_gauge mx "sched.shards" (float_of_int n);
      Dyno_obs.Metrics.set_counter mx "sched.cross_shard_barriers"
        stats.Stats.cross_shard_barriers
    end;
    stats
  end
