(* Unit tests for the consistency checkers: they must accept correct runs
   (covered extensively by test_scheduler) and, crucially, they must
   actually CATCH corruption — a checker that never fails proves
   nothing. *)

open Dyno_relational
open Dyno_view
open Dyno_workload
open Dyno_core

let run_small () =
  let timeline =
    Generator.mixed ~rows:12 ~seed:99 ~n_dus:10 ~du_interval:0.0
      ~sc_interval:0.0 ~sc_kinds:[] ()
  in
  let t =
    Scenario.make
      Scenario.Config.(
        default |> with_rows 12 |> with_cost Dyno_sim.Cost_model.free
        |> with_snapshots true)
      ~timeline
  in
  ignore
    (Scenario.run t
       ~config:(Dyno_core.Run_config.of_strategy Strategy.Pessimistic));
  t

let test_accepts_correct_run () =
  let t = run_small () in
  (match Scenario.check_convergent t with
  | Ok true -> ()
  | _ -> Alcotest.fail "should converge");
  let r = Scenario.check_strong t in
  Alcotest.(check bool) "strong ok" true (Consistency.ok r);
  Alcotest.(check bool) "commits were actually checked" true (r.Consistency.checked > 1)

let test_catches_corrupted_extent () =
  let t = run_small () in
  (* sabotage the extent: inject a phantom tuple *)
  let mv = t.Scenario.mv in
  let extent = Mat_view.extent mv in
  let schema = Relation.schema extent in
  let phantom =
    Tuple.of_list
      (List.map
         (fun a ->
           match Attr.ty a with
           | Value.Vtype.TInt -> Value.int 987654
           | Value.Vtype.TFloat -> Value.float 9.9
           | Value.Vtype.TString -> Value.string "phantom"
           | Value.Vtype.TBool -> Value.bool true)
         (Schema.attrs schema))
  in
  Relation.add extent phantom 1;
  (match Scenario.check_convergent t with
  | Ok false -> ()
  | Ok true -> Alcotest.fail "corruption must break convergence"
  | Error e -> Alcotest.failf "unexpected: %s" e)

(* A tuple of [schema] that no generated workload produces. *)
let phantom_of schema ~int ~str =
  Tuple.of_list
    (List.map
       (fun a ->
         match Attr.ty a with
         | Value.Vtype.TInt -> Value.int int
         | Value.Vtype.TFloat -> Value.float 1.0
         | Value.Vtype.TString -> Value.string str
         | Value.Vtype.TBool -> Value.bool false)
       (Schema.attrs schema))

let test_catches_corrupted_snapshot () =
  let t = run_small () in
  (* corrupt the last commit's recorded delta *)
  (match Mat_view.commits t.Scenario.mv |> List.rev with
  | last :: _ -> (
      match last.Mat_view.change with
      | Some (Mat_view.Delta snap) ->
          Relation.add snap
            (phantom_of (Relation.schema snap) ~int:123123 ~str:"bad")
            1
      | _ -> Alcotest.fail "a recorded delta expected")
  | [] -> Alcotest.fail "commits expected");
  let r = Scenario.check_strong t in
  Alcotest.(check bool) "mismatch detected" false (Consistency.ok r);
  Alcotest.(check int) "exactly one bad commit" 1 (List.length r.Consistency.mismatches)

let test_convergent_on_undefined_view () =
  let t = run_small () in
  View_def.invalidate (Mat_view.def t.Scenario.mv);
  match Scenario.check_convergent t with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "undefined view is not checkable"

(* -- cross-check against the reference oracle -------------------------- *)

let arb_cross =
  QCheck.make
    QCheck.Gen.(
      pair
        (quad (int_range 1 10000) (int_range 1 15) (int_range 0 4)
           (int_range 0 2))
        (pair (int_range 1 3) (opt ~ratio:0.5 (int_range 0 40))))
    ~print:(fun ((seed, dus, scs, strat), (shards, corrupt)) ->
      Fmt.str "seed=%d dus=%d scs=%d strategy=%d shards=%d corrupt=%a" seed
        dus scs strat shards
        Fmt.(option ~none:(any "none") int)
        corrupt)

(* The forward replay and the reference oracle (full re-evaluation over
   rebuilt states at every commit) must reach the same verdict commit for
   commit: the same [checked] and [skipped] counts and the same mismatch
   indices — on clean runs and after one recorded change is corrupted
   ([corrupt] picks which of the Delta/Replaced commits). *)
let prop_matches_reference =
  QCheck.Test.make ~name:"forward replay = reference oracle" ~count:120
    arb_cross (fun ((seed, n_dus, n_scs, strat), (shards, corrupt)) ->
      let strategy =
        match strat with
        | 0 -> Strategy.Pessimistic
        | 1 -> Strategy.Optimistic
        | _ -> Strategy.Merge_all
      in
      let timeline =
        Generator.mixed ~rows:10 ~seed ~n_dus ~du_interval:0.2 ~sc_start:0.1
          ~sc_interval:1.5
          ~sc_kinds:(Generator.drop_then_renames n_scs)
          ()
      in
      let t =
        Scenario.make
          Scenario.Config.(
            default |> with_rows 10
            |> with_cost { Dyno_sim.Cost_model.default with row_scale = 1.0 }
            |> with_snapshots true |> with_shards shards)
          ~timeline
      in
      ignore (Scenario.run t ~config:(Run_config.of_strategy strategy));
      let mv = t.Scenario.mv in
      (match corrupt with
      | None -> ()
      | Some j ->
          let changed =
            List.filter_map
              (fun (c : Mat_view.commit) ->
                match c.Mat_view.change with
                | Some (Mat_view.Delta r) | Some (Mat_view.Replaced r) ->
                    Some r
                | _ -> None)
              (Mat_view.commits mv)
          in
          if changed <> [] then
            let r = List.nth changed (j mod List.length changed) in
            Relation.add r
              (phantom_of (Relation.schema r) ~int:424242 ~str:"phantom")
              1);
      let msg_index = Scenario.msg_index t in
      let fwd = Consistency.check_strong t.Scenario.engine mv ~msg_index in
      let ref_ = Strong_ref.check_strong t.Scenario.engine mv ~msg_index in
      let indices (r : Consistency.report) =
        List.map (fun m -> m.Consistency.commit_index) r.Consistency.mismatches
      in
      fwd.Consistency.checked = ref_.Consistency.checked
      && fwd.Consistency.skipped = ref_.Consistency.skipped
      && indices fwd = indices ref_)

let () =
  Alcotest.run "consistency"
    [
      ( "consistency",
        [
          Alcotest.test_case "accepts a correct run" `Quick test_accepts_correct_run;
          Alcotest.test_case "catches corrupted extent" `Quick test_catches_corrupted_extent;
          Alcotest.test_case "catches corrupted snapshot" `Quick test_catches_corrupted_snapshot;
          Alcotest.test_case "undefined view not checkable" `Quick
            test_convergent_on_undefined_view;
          QCheck_alcotest.to_alcotest prop_matches_reference;
        ] );
    ]
