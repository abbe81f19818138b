(* Tests of the benchmark's own code: span self-time arithmetic, failure
   accounting, and the traced driver's fidelity on tiny scenarios. *)

open Hostbench
module Scenario = Dyno_workload.Scenario

(* ---- spans ---------------------------------------------------------- *)

let fake () =
  let clock = ref 0 and words = ref 0.0 in
  (clock, words, Spans.create ~now:(fun () -> !clock) ~words:(fun () -> !words) ())

(* a [0,100] ⊃ b [10,30], c [40,90] ⊃ d [50,60] *)
let nested () =
  let clock, words, sp = fake () in
  Spans.with_span sp "a" (fun () ->
      clock := 10;
      Spans.with_span sp "b" (fun () ->
          clock := 30;
          words := 5.0);
      clock := 40;
      Spans.with_span sp ~msg:7 "c" (fun () ->
          clock := 50;
          Spans.with_span sp "d" (fun () -> clock := 60);
          clock := 90);
      clock := 100;
      words := 8.0);
  sp

let test_self_time () =
  let spans = Spans.spans (nested ()) in
  let self = Spans.self_ns spans in
  let by name = List.find (fun s -> s.Spans.name = name) spans in
  let self_of name = Hashtbl.find self (by name).Spans.id in
  Alcotest.(check int) "a = 100 - (20 + 50)" 30 (self_of "a");
  Alcotest.(check int) "b leaf" 20 (self_of "b");
  Alcotest.(check int) "c = 50 - 10" 40 (self_of "c");
  Alcotest.(check int) "d leaf" 10 (self_of "d");
  Alcotest.(check int) "d's parent is c" (by "c").Spans.id (by "d").Spans.parent;
  Alcotest.(check int) "message id kept" 7 (by "c").Spans.msg;
  let total = List.fold_left (fun a s -> a + Hashtbl.find self s.Spans.id) 0 spans in
  Alcotest.(check int) "self times tile the root" 100 total

let test_summary () =
  let spans = Spans.spans (nested ()) in
  let ops = Spans.summarize spans in
  Alcotest.(check (list string)) "one op per name" [ "a"; "b"; "c"; "d" ]
    (List.map (fun o -> o.Spans.op) ops);
  let a = List.find (fun o -> o.Spans.op = "a") ops in
  Alcotest.(check (float 1e-15)) "self seconds" 30e-9 a.Spans.self_s;
  Alcotest.(check (float 0.0)) "p50 of one call" 100.0 a.Spans.ns_p50;
  Alcotest.(check (float 0.0)) "words inside a" 8.0 a.Spans.words_per_call;
  Alcotest.(check (float 1e-12)) "coverage" 0.5 (Spans.coverage spans ~wall_ns:200)

let test_raise_closes () =
  let clock, _, sp = fake () in
  (try
     Spans.with_span sp "outer" (fun () ->
         clock := 5;
         failwith "boom")
   with Failure _ -> ());
  clock := 9;
  Spans.with_span sp "next" (fun () -> clock := 12);
  match Spans.spans sp with
  | [ o; n ] ->
      Alcotest.(check int) "raising span closed" 5 (o.Spans.t1 - o.Spans.t0);
      Alcotest.(check int) "next span is a root" 0 n.Spans.parent
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_quantiles () =
  Alcotest.(check (float 0.0)) "even median" 2.5 (Stat.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 0.0)) "p99 nearest rank" 99.0
    (Stat.quantile 0.99 (List.init 100 (fun i -> float_of_int (i + 1))));
  Alcotest.(check (float 0.0)) "p50 nearest rank" 50.0
    (Stat.quantile 0.5 (List.init 100 (fun i -> float_of_int (i + 1))))

(* ---- failure accounting --------------------------------------------- *)

let test_tally () =
  let w = Workload.sc_storm in
  let t = Tally.create () in
  Alcotest.(check (option int)) "ok step" (Some 1)
    (Tally.guard t w ~seed:3 (fun () -> 1));
  Alcotest.(check (option int)) "raising step" None
    (Tally.guard t w ~seed:4 (fun () -> invalid_arg "race"));
  ignore (Tally.guard t w ~seed:4 (fun () -> failwith "again") : unit option);
  Alcotest.(check int) "attempted seeds" 2 (Tally.attempted t);
  Alcotest.(check int) "a seed fails once" 1 (Tally.failed t);
  Alcotest.(check (float 0.0)) "ratio" 0.5 (Tally.ratio t);
  Alcotest.(check bool) "a crash is not a wrong output" false t.Tally.wrong_output;
  let f = List.hd (Tally.failures t) in
  Alcotest.(check string) "exception kept" "Invalid_argument(\"race\")" f.Tally.reason;
  Alcotest.(check bool) "reproducing command" true
    (String.starts_with ~prefix:"dyno run --rows 1000 --dus 1000 --scs 20" f.Tally.repro
    && String.ends_with ~suffix:"--seed 4" f.Tally.repro)

let test_gather_continues () =
  let w = { Workload.sc_storm with Workload.scenarios = 2 } in
  let t = Tally.create () in
  let bad = Workload.scenario_seed w ~seed:5 0 in
  let finished =
    Runs.gather t w ~seed:5 (fun s ->
        if s = bad then invalid_arg "Umq.replace" else true)
  in
  Alcotest.(check (list int)) "run goes on past the failure"
    [ Workload.scenario_seed w ~seed:5 1; Workload.scenario_seed w ~seed:5 2 ]
    finished;
  Alcotest.(check int) "attempted" 3 (Tally.attempted t);
  Alcotest.(check int) "failed" 1 (Tally.failed t)

(* ---- traced driver fidelity ----------------------------------------- *)

let tiny =
  {
    Workload.sc_storm with
    Workload.name = "tiny";
    rows = 40;
    dus = 40;
    scs = 4;
    sc_interval = 6.0;
  }

let outcome (t : Scenario.t) stats =
  Traced.Finished { extent = Dyno_view.Mat_view.extent t.Scenario.mv; stats }

let plain w ~seed =
  let t = Scenario.make (Workload.config w ~seed ~obs:Dyno_obs.Obs.disabled)
      ~timeline:(Workload.timeline w ~seed) in
  outcome t (Scenario.run t ~config:(Workload.run_config w))

let traced w ~seed sp =
  let t = Scenario.make (Workload.config w ~seed ~obs:Dyno_obs.Obs.disabled)
      ~timeline:(Workload.timeline w ~seed) in
  let r = Traced.run sp t in
  (outcome t r.Traced.stats, r)

let test_fidelity () =
  let aborts = ref 0 in
  List.iter
    (fun seed ->
      let sp = Spans.create () in
      let o, r = traced tiny ~seed sp in
      aborts := !aborts + r.Traced.stats.Dyno_core.Stats.aborts;
      Alcotest.(check (list string)) (Printf.sprintf "seed %d faithful" seed) []
        (Traced.fidelity ~timed:(plain tiny ~seed) ~traced:o);
      let calls name =
        List.length (List.filter (fun s -> s.Spans.name = name) (Spans.spans sp))
      in
      Alcotest.(check int) "one refresh span per refreshed update"
        r.Traced.stats.Dyno_core.Stats.du_maintained (calls "view.refresh");
      Alcotest.(check bool) "steps traced" true (calls "core.step" > 0))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "the tiny scenarios abort and correct" true (!aborts > 0)

let test_fidelity_detects () =
  let a = plain tiny ~seed:1 and b = plain tiny ~seed:2 in
  Alcotest.(check bool) "different scenarios differ" true
    (Traced.fidelity ~timed:a ~traced:b <> []);
  Alcotest.(check bool) "crash vs finish" true
    (Traced.fidelity ~timed:(Traced.Raised "Failure(\"x\")") ~traced:a <> []);
  Alcotest.(check (list string)) "same crash" []
    (Traced.fidelity ~timed:(Traced.Raised "e") ~traced:(Traced.Raised "e"))

let () =
  Alcotest.run "hostbench"
    [
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "raise closes" `Quick test_raise_closes;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
        ] );
      ( "failures",
        [
          Alcotest.test_case "tally" `Quick test_tally;
          Alcotest.test_case "run continues" `Quick test_gather_continues;
        ] );
      ( "fidelity",
        [
          Alcotest.test_case "tiny scenarios" `Quick test_fidelity;
          Alcotest.test_case "mismatch detected" `Quick test_fidelity_detects;
        ] );
    ]
