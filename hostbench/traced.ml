open Dyno_view
open Dyno_core
module Scenario = Dyno_workload.Scenario
module Cost_model = Dyno_sim.Cost_model

type result = { stats : Stats.t; umq_len_max : int }

(* Mirrors Scheduler.detect_and_correct: detection, its charge, then the
   correction and its charge — the charge between the two delivers
   commits, exactly as in the scheduler. *)
let detect_and_correct sp ~force w mv stats =
  let umq = Query_engine.umq w in
  let cost = Query_engine.cost w in
  let vd = Mat_view.def mv in
  let t0 = Query_engine.now w in
  let outcome =
    Spans.with_span sp "core.detect" (fun () ->
        if force then Detect.force vd umq else Detect.pre_exec vd umq)
  in
  (match outcome.Detect.graph with
  | None ->
      Spans.with_span sp "view.advance" (fun () ->
          Query_engine.advance w cost.Cost_model.detect_flag)
  | Some g ->
      stats.Stats.detections <- stats.Stats.detections + 1;
      let n = Dep_graph.size g in
      let m = List.length (List.filter Update_msg.is_sc (Umq.messages umq)) in
      Spans.with_span sp "view.advance" (fun () ->
          Query_engine.advance w (Cost_model.detect cost ~n ~m));
      let r = Spans.with_span sp "core.correct" (fun () -> Correct.apply umq g) in
      Spans.with_span sp "view.advance" (fun () ->
          Query_engine.advance w
            (Cost_model.correct cost ~nodes:r.Correct.nodes
               ~edges:r.Correct.edges));
      if r.Correct.reordered then
        stats.Stats.corrections <- stats.Stats.corrections + 1;
      stats.Stats.merges <- stats.Stats.merges + r.Correct.merged_cycles);
  stats.Stats.busy <- stats.Stats.busy +. (Query_engine.now w -. t0)

(* Mirrors Scheduler.maintain_entry for a single data update on a defined
   view, split at the sweep / refresh boundary (Vm.maintain is exactly
   maintain_sweep followed by commit_swept). *)
let maintain_du sp w mv stats m u =
  let id = Update_msg.id m in
  match
    Spans.with_span sp ~msg:id "vm.sweep" (fun () ->
        Dyno_vm.Vm.maintain_sweep ~compensate:true w mv m u)
  with
  | Dyno_vm.Vm.Swept (dv, s) -> (
      match
        Spans.with_span sp ~msg:id "view.refresh" (fun () ->
            Dyno_vm.Vm.commit_swept w mv m dv s)
      with
      | Dyno_vm.Vm.Refreshed { stats = s; _ } ->
          stats.Stats.du_maintained <- stats.Stats.du_maintained + 1;
          stats.Stats.probes <- stats.Stats.probes + s.Dyno_vm.Sweep.probes;
          stats.Stats.compensations <-
            stats.Stats.compensations + s.Dyno_vm.Sweep.compensations;
          stats.Stats.view_commits <- stats.Stats.view_commits + 1;
          Scheduler.Done
      | _ -> assert false)
  | Dyno_vm.Vm.Swept_irrelevant ->
      Mat_view.record_commit mv ~at:(Query_engine.now w) ~maintained:[ id ];
      stats.Stats.irrelevant <- stats.Stats.irrelevant + 1;
      Scheduler.Done
  | Dyno_vm.Vm.Swept_aborted b -> Scheduler.AbortedStep b
  | Dyno_vm.Vm.Swept_unreachable u -> Scheduler.UnreachableStep u

(* Mirrors one Scheduler.run iteration for the pessimistic strategy. *)
let step sp (t : Scenario.t) stats =
  let w = t.Scenario.engine and mv = t.Scenario.mv in
  let umq = Query_engine.umq w in
  detect_and_correct sp ~force:false w mv stats;
  match Umq.head umq with
  | None -> ()
  | Some entry -> (
      Spans.set_msg sp (List.hd (Umq.entry_ids entry));
      Umq.clear_broken_query_flag umq;
      let t0 = Query_engine.now w in
      let outcome =
        match entry with
        | Umq.Single m when View_def.is_valid (Mat_view.def mv) -> (
            match Update_msg.as_du m with
            | Some u -> maintain_du sp w mv stats m u
            | None ->
                Spans.with_span sp ~msg:(Update_msg.id m) "va.adapt" (fun () ->
                    Scheduler.maintain_entry ~compensate:true
                      ~vm_mode:Scheduler.Incremental w mv t.Scenario.mk stats
                      entry))
        | _ ->
            Spans.with_span sp
              ~msg:(List.hd (Umq.entry_ids entry))
              "va.adapt"
              (fun () ->
                Scheduler.maintain_entry ~compensate:true
                  ~vm_mode:Scheduler.Incremental w mv t.Scenario.mk stats entry)
      in
      match outcome with
      | Scheduler.Done ->
          stats.Stats.busy <- stats.Stats.busy +. (Query_engine.now w -. t0);
          Umq.remove_head umq
      | Scheduler.UnreachableStep u -> Scheduler.stall_and_wait w stats ~t0 u
      | Scheduler.AbortedStep _ ->
          let dt = Query_engine.now w -. t0 in
          stats.Stats.busy <- stats.Stats.busy +. dt;
          stats.Stats.abort_cost <- stats.Stats.abort_cost +. dt;
          stats.Stats.aborts <- stats.Stats.aborts + 1;
          stats.Stats.broken_queries <- stats.Stats.broken_queries + 1;
          if not (Umq.peek_schema_change_flag umq) then
            detect_and_correct sp ~force:true w mv stats)

let run sp (t : Scenario.t) =
  let w = t.Scenario.engine in
  let umq = Query_engine.umq w in
  let stats = Stats.create () in
  let max_steps = Run_config.default.Run_config.max_steps in
  let steps = ref 0 and umq_len_max = ref 0 in
  let rec loop () =
    incr steps;
    if !steps > max_steps then raise (Scheduler.Step_limit_exceeded !steps);
    Spans.with_span sp "view.deliver" (fun () -> Query_engine.deliver_due w);
    umq_len_max := max !umq_len_max (Umq.length umq);
    if Umq.is_empty umq then (
      match Query_engine.next_wakeup w with
      | None -> ()
      | Some at ->
          let dt = at -. Query_engine.now w in
          if dt > 0.0 then stats.Stats.idle <- stats.Stats.idle +. dt;
          Spans.with_span sp "sim.idle" (fun () -> Query_engine.idle_until w at);
          loop ())
    else begin
      Spans.with_span sp "core.step" (fun () -> step sp t stats);
      loop ()
    end
  in
  loop ();
  stats.Stats.end_time <- Query_engine.now w;
  Scheduler.record_net_stats w stats;
  { stats; umq_len_max = !umq_len_max }

type outcome =
  | Finished of { extent : Dyno_relational.Relation.t; stats : Stats.t }
  | Raised of string

let fidelity ~timed ~traced =
  match (timed, traced) with
  | Raised a, Raised b ->
      if String.equal a b then []
      else [ Printf.sprintf "exception: timed %s, traced %s" a b ]
  | Raised a, Finished _ -> [ "timed run raised " ^ a ^ ", traced finished" ]
  | Finished _, Raised b -> [ "traced run raised " ^ b ^ ", timed finished" ]
  | Finished a, Finished b ->
      let int name f =
        if f a.stats = f b.stats then []
        else [ Printf.sprintf "%s: timed %d, traced %d" name (f a.stats) (f b.stats) ]
      in
      List.concat
        [
          (if Dyno_relational.Relation.equal a.extent b.extent then []
           else [ "final extent differs" ]);
          int "view_commits" (fun s -> s.Stats.view_commits);
          int "probes" (fun s -> s.Stats.probes);
          int "aborts" (fun s -> s.Stats.aborts);
          int "merges" (fun s -> s.Stats.merges);
          (if Float.equal a.stats.Stats.end_time b.stats.Stats.end_time then []
           else
             [
               Printf.sprintf "final clock: timed %.17g, traced %.17g"
                 a.stats.Stats.end_time b.stats.Stats.end_time;
             ]);
        ]
