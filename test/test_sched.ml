(* The scheduling machinery shared by the serial, sharded and multi-view
   schedulers: correction against a queue that grew while detection was
   charged, one-view multi-view ≡ serial, merge-all provenance after
   grouped and parallel-round aborts, and the configurations the
   multi-view scheduler rejects up front. *)

open Dyno_relational
open Dyno_view
open Dyno_core
module Scenario = Dyno_workload.Scenario
module Generator = Dyno_workload.Generator

(* The CLI's [run] world: 200 rows, DUs every 0.05 s racing a
   drop-then-rename schema-change train. *)
let world ?(obs = Dyno_obs.Obs.disabled) ?(shards = 1) ?sc_start ~seed ~dus ~scs
    ~sc_interval () =
  let rows = 200 in
  Scenario.make
    Scenario.Config.(
      default |> with_rows rows
      |> with_cost (Dyno_sim.Cost_model.scaled (100_000.0 /. float_of_int rows))
      |> with_snapshots true |> with_trace true |> with_obs obs
      |> with_shards shards)
    ~timeline:
      (Generator.mixed ~rows ~seed ~n_dus:dus ~du_interval:0.05 ?sc_start
         ~sc_interval
         ~sc_kinds:(Generator.drop_then_renames scs)
         ())

let run_multi ~config (t : Scenario.t) =
  Multi_scheduler.run ~config t.Scenario.engine
    (Multi_scheduler.create [ t.Scenario.mv ])
    t.Scenario.mk

(* --- Correction against a grown queue ------------------------------- *)

let schema = Schema.of_list [ Attr.int "k" ]

let du source rel k =
  Update_msg.Du (Update.insert ~source ~rel schema [ Value.int k ])

(* Charging the detection pass can deliver messages before the
   correction runs: the corrected order is installed first, then every
   entry the graph never saw, in arrival order. *)
let test_correct_grown_queue () =
  let q = Umq.create () in
  let add p = ignore (Umq.enqueue q ~commit_time:0.0 ~source_version:0 p) in
  add (du "ds1" "A" 0);
  add (du "ds2" "B" 1);
  add
    (Update_msg.Sc
       (Schema_change.Rename_relation
          { source = "ds1"; old_name = "A"; new_name = "Ax" }));
  let view =
    Query.make ~name:"V"
      ~select:[ Query.item "A.k"; Query.item "B.k" ]
      ~from:[ Query.table "ds1" "A"; Query.table "ds2" "B" ]
      ~where:[ Predicate.eq_attr "A.k" "B.k" ]
  in
  let g =
    Dep_graph.build view [ ("A", schema); ("B", schema) ] (Umq.entries q)
  in
  add (du "ds2" "B" 3);
  add (du "ds1" "A" 4);
  let r = Correct.apply q g in
  Alcotest.(check bool) "reordered" true r.Correct.reordered;
  (* ds1's DU keeps its place before ds1's rename (same source); ds2's DU
     moves behind the conflicting rename. *)
  Alcotest.(check (list int))
    "legal order, then late arrivals" [ 0; 2; 1; 3; 4 ]
    (List.map Update_msg.id (Umq.messages q))

(* Seeds of the CLI workload whose corrections raised [Umq.replace]'s
   "correction must preserve the set of updates", serial and multi-view
   alike. *)
let test_grown_queue_runs () =
  List.iter
    (fun (strategy, seed) ->
      let config = Run_config.of_strategy strategy in
      let label = Fmt.str "%a seed %d" Strategy.pp strategy seed in
      let t = world ~seed ~dus:300 ~scs:4 ~sc_interval:3.0 () in
      ignore (Scenario.run t ~config : Stats.t);
      Alcotest.(check (result bool string))
        (label ^ " convergent") (Ok true) (Scenario.check_convergent t);
      Alcotest.(check bool)
        (label ^ " strongly consistent") true
        (Consistency.ok (Scenario.check_strong t));
      let t = world ~seed ~dus:300 ~scs:4 ~sc_interval:3.0 () in
      ignore (run_multi ~config t : Stats.t);
      Alcotest.(check (result bool string))
        (label ^ " multi-view convergent") (Ok true)
        (Scenario.check_convergent t))
    Strategy.
      [
        (Pessimistic, 12); (Pessimistic, 23); (Optimistic, 5); (Optimistic, 30);
      ]

(* --- One-view multi-view ≡ serial ----------------------------------- *)

(* Both schedulers share detection, correction, the outcome handler and
   the run shell, so on one view they must agree on every statistic and
   on the final extent — or raise the same exception. *)
let test_one_view_equals_serial () =
  List.iter
    (fun strategy ->
      for seed = 1 to 20 do
        let config = Run_config.of_strategy strategy in
        let go run =
          let t = world ~seed ~dus:300 ~scs:4 ~sc_interval:3.0 () in
          match run t with
          | stats ->
              Ok (Stats.to_json_string stats, Mat_view.extent t.Scenario.mv)
          | exception e -> Error (Printexc.to_string e)
        in
        let label = Fmt.str "%a seed %d" Strategy.pp strategy seed in
        match
          ( go (fun t ->
                Scheduler.run ~config t.Scenario.engine t.Scenario.mv
                  t.Scenario.mk),
            go (run_multi ~config) )
        with
        | Ok (js, xs), Ok (jm, xm) ->
            Alcotest.(check string) (label ^ " stats") js jm;
            Alcotest.(check bool)
              (label ^ " extent") true (Relation.equal xs xm)
        | Error es, Error em ->
            Alcotest.(check string) (label ^ " raised") es em
        | Error e, Ok _ | Ok _, Error e ->
            Alcotest.failf "%s: only one scheduler raised %s" label e
      done)
    Strategy.all

(* --- Merge-all provenance after any abort --------------------------- *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* Whichever step aborted — the queue head, a grouped sweep or a parallel
   round — merge-all records one [Merge] trace line per collapse and one
   lineage merge event on each collapsed update. *)
let test_merge_all_provenance () =
  List.iter
    (fun (label, config, aborted) ->
      for seed = 1 to 3 do
        let obs = Dyno_obs.Obs.create () in
        let t =
          world ~obs ~sc_start:1.0 ~seed ~dus:60 ~scs:3 ~sc_interval:2.0 ()
        in
        let stats =
          Scenario.run t
            ~config:(config (Run_config.of_strategy Strategy.Merge_all))
        in
        let label = Fmt.str "%s seed %d" label seed in
        let find kind prefix =
          List.filter
            (fun e -> starts_with prefix e.Dyno_sim.Trace.detail)
            (Dyno_sim.Trace.find_all t.Scenario.trace kind)
        in
        Alcotest.(check bool)
          (label ^ ": aborted") true
          (find Dyno_sim.Trace.Abort aborted <> []);
        let merges = find Dyno_sim.Trace.Merge "merge-all: " in
        Alcotest.(check int)
          (label ^ ": one Merge line per collapse") stats.Stats.merges
          (List.length merges);
        let events =
          List.concat_map
            (fun (r : Dyno_obs.Lineage.record) -> r.Dyno_obs.Lineage.revents)
            (Dyno_obs.Lineage.records (Dyno_obs.Obs.lineage obs))
        in
        List.iter
          (fun (m : Dyno_sim.Trace.entry) ->
            let n = Scanf.sscanf m.detail "merge-all: %d" Fun.id in
            let detail =
              Fmt.str "merge-all: %d update(s) collapsed into one batch" n
            in
            Alcotest.(check int)
              (label ^ ": lineage merge events") n
              (List.length
                 (List.filter
                    (fun (e : Dyno_obs.Lineage.event) ->
                      e.kind = "merge" && e.at = m.time && e.detail = detail)
                    events)))
          merges
      done)
    [
      ("serial", Fun.id, "maintenance aborted");
      ("du_group 4", Run_config.with_du_group 4, "grouped maintenance aborted");
      ("parallel 3", Run_config.with_parallel 3, "parallel round aborted");
    ]

(* --- What the multi-view scheduler rejects -------------------------- *)

let test_multi_rejects () =
  let rejects label ?(shards = 1) config =
    let t = world ~shards ~seed:1 ~dus:10 ~scs:1 ~sc_interval:3.0 () in
    match run_multi ~config t with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted" label
  in
  rejects "two engine routes" ~shards:2 Run_config.default;
  rejects "Recompute" Run_config.(default |> with_vm_mode Recompute);
  rejects "du_group 2" Run_config.(default |> with_du_group 2)

let () =
  Alcotest.run "sched"
    [
      ( "shared",
        [
          Alcotest.test_case "correct grown queue" `Quick
            test_correct_grown_queue;
          Alcotest.test_case "grown queue runs" `Quick test_grown_queue_runs;
          Alcotest.test_case "one view = serial" `Quick
            test_one_view_equals_serial;
          Alcotest.test_case "merge-all provenance" `Quick
            test_merge_all_provenance;
          Alcotest.test_case "multi rejects" `Quick test_multi_rejects;
        ] );
    ]
