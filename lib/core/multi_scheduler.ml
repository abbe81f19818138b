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

type view_state = {
  idx : int;  (** position: selects the view's auxiliary store *)
  mv : Mat_view.t;
  mutable applied : int list;  (** queued message ids already integrated *)
}

type t = { views : view_state list }

let create mvs =
  { views = List.mapi (fun idx mv -> { idx; mv; applied = [] }) mvs }

let views t = List.map (fun v -> v.mv) t.views

(* Maintain one entry against one view, skipping already-applied msgs. *)
let maintain_for_view ?local ~compensate (w : Query_engine.t)
    (mk : Dyno_source.Meta_knowledge.t) (stats : Stats.t) (v : view_state)
    (entry : Umq.entry) : Scheduler.step_outcome =
  let todo =
    List.filter
      (fun m -> not (List.mem (Update_msg.id m) v.applied))
      (Umq.entry_messages entry)
  in
  if todo = [] || not (View_def.is_valid (Mat_view.def v.mv)) then
    Scheduler.Done
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
                  Scheduler.credit_sweep stats s;
                  Scheduler.Done
              | Dyno_vm.Vm.Irrelevant ->
                  stats.Stats.irrelevant <- stats.Stats.irrelevant + 1;
                  Scheduler.Done
              | Dyno_vm.Vm.Aborted b -> Scheduler.AbortedStep b
              | Dyno_vm.Vm.Unreachable u -> Scheduler.UnreachableStep u)
          | None -> Scheduler.Done)
      | msgs -> (
          match Dyno_va.Batch.maintain ~applied:v.applied w v.mv mk msgs with
          | Dyno_va.Batch.Adapted ->
              (if List.exists Update_msg.is_sc msgs then
                 if List.length msgs > 1 then begin
                   stats.Stats.batches <- stats.Stats.batches + 1;
                   stats.Stats.batch_updates <-
                     stats.Stats.batch_updates + List.length msgs
                 end
                 else
                   stats.Stats.sc_maintained <- stats.Stats.sc_maintained + 1);
              stats.Stats.view_commits <- stats.Stats.view_commits + 1;
              Scheduler.Done
          | Dyno_va.Batch.Aborted b -> Scheduler.AbortedStep b
          | Dyno_va.Batch.Unreachable u -> Scheduler.UnreachableStep u
          | Dyno_va.Batch.View_undefined _ ->
              stats.Stats.view_undefined <- true;
              Scheduler.Done)
    in
    (match outcome with
    | Scheduler.Done -> v.applied <- List.map Update_msg.id todo @ v.applied
    | Scheduler.AbortedStep _ | Scheduler.UnreachableStep _ -> ());
    outcome

(** [run ?config w t mk] — the multi-view Dyno loop: drains the UMQ and
    the timeline, maintaining every entry against every view. *)
let run ?(config = Run_config.default) (w : Query_engine.t) (t : t)
    (mk : Dyno_source.Meta_knowledge.t) : Stats.t =
  if Query_engine.route_count w > 1 then
    invalid_arg
      (Fmt.str "Multi_scheduler.run: one queue, but %d engine routes"
         (Query_engine.route_count w));
  if config.Run_config.vm_mode <> Run_config.Incremental then
    invalid_arg "Multi_scheduler.run: vm_mode must be Incremental";
  if config.du_group > 1 then
    invalid_arg "Multi_scheduler.run: du_group must be at most 1";
  let mvs = views t in
  (* One auxiliary-view store per view: each view has its own join
     partners and coverage, so the stores are independent even though
     they all ride the same admitted stream. *)
  let env = Scheduler.make_env ~config ~plan:None w mvs in
  let stats = env.Scheduler.stats in
  let umq = Query_engine.umq w in
  let obs = Query_engine.obs w in
  let sp = Dyno_obs.Obs.spans obs
  and mx = Dyno_obs.Obs.metrics obs in
  let lin = Dyno_obs.Obs.lineage obs in
  (* One freshness tracker per view.  Frontiers are advanced only when an
     entry has been integrated by {e every} view — a partially-applied
     entry still counts as unapplied lag for the views that already
     committed it, which is the conservative reading. *)
  let trackers =
    List.map
      (fun mv ->
        Freshness.create ~metrics:mx ~mv
          ~registry:(Query_engine.registry w)
          ~queued:(Umq.messages umq) ())
      mvs
  in
  Scheduler.register_probes env ~umqs:[ umq ] ~trackers;
  let recover = Scheduler.recover env mvs in
  let maintain_views entry =
    let rec go = function
      | [] -> Scheduler.Done
      | v :: rest -> (
          match
            maintain_for_view ?local:(Scheduler.local env v.idx)
              ~compensate:config.compensate w mk stats v entry
          with
          | Scheduler.Done -> go rest
          | failed -> failed)
    in
    go t.views
  in
  (* With [parallel > 1] a single-DU entry's sweeps run for all eligible
     views concurrently (capped at [parallel]), committing in view order;
     earlier views keep their commits when a later one fails — [applied]
     remembers them for the retry.  Any remainder, and every other entry
     shape, takes the serial view-by-view path, which skips
     already-applied views. *)
  let parallel_views m u =
    let eligible =
      List.filter
        (fun v ->
          View_def.is_valid (Mat_view.def v.mv)
          && not (List.mem (Update_msg.id m) v.applied))
        t.views
    in
    if List.length eligible < 2 then Scheduler.Done
    else
      let chunk = List.filteri (fun i _ -> i < config.parallel) eligible in
      Dyno_obs.Metrics.observe mx "sched.antichain_size"
        (float_of_int (List.length chunk));
      match
        Scheduler.sweep_round env ~discard:ignore
          ~commit:(fun mb _ ->
            let v = List.find (fun v -> v.mv == mb.Scheduler.view) chunk in
            v.applied <- Update_msg.id m :: v.applied)
          (List.mapi
             (fun i v ->
               {
                 Scheduler.view = v.mv;
                 msg = m;
                 du = u;
                 applied = v.applied;
                 exclude = [];
                 local = Scheduler.local env v.idx;
                 thread = Dyno_obs.Span.namef sp "view-%d" i;
                 spent = 0.0;
               })
             chunk)
      with
      | None -> Scheduler.Done
      | Some (_, failed) -> failed
  in
  let iteration mid =
    (match config.strategy with
    | Strategy.Pessimistic ->
        Scheduler.detect_and_correct ~force:false w mvs stats
    | Strategy.Optimistic | Strategy.Merge_all -> ());
    match Umq.head umq with
    | None -> ()
    | Some entry ->
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
        (match entry with
        | Umq.Single m when config.parallel > 1 -> (
            match Update_msg.as_du m with
            | Some u -> (
                match parallel_views m u with
                | Scheduler.Done -> maintain_views entry
                | failed -> failed)
            | None -> maintain_views entry)
        | _ -> maintain_views entry)
        |> Scheduler.settle env ~mid:(Some mid) ~t0 ~ids:eids
             ~what:"multi-view maintenance" ~recover
             ~on_done:(fun () ->
               (* Entry fully integrated everywhere: dequeue and drop its
                  ids from the applied sets (they can never reappear). *)
               let msgs = Umq.entry_messages entry in
               List.iter
                 (fun f ->
                   Freshness.note_entry f ~now:(Query_engine.now w) msgs)
                 trackers;
               Dyno_obs.Lineage.finish lin ~ids:eids
                 ~time:(Query_engine.now w) ~state:Dyno_obs.Lineage.Applied
                 ~detail:
                   (Dyno_obs.Lineage.detailf lin "integrated by all %d view(s)"
                      (List.length t.views));
               List.iter
                 (fun v ->
                   v.applied <-
                     List.filter (fun id -> not (List.mem id eids)) v.applied)
                 t.views;
               Umq.remove_head umq)
  in
  Scheduler.drive env ~is_empty:(fun () -> Umq.is_empty umq) iteration
