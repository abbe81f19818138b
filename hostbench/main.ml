(* Host-clock benchmark of the Dyno maintenance pipeline.

     bash hostbench/run.sh --workload du_stream --seed 1 --seconds 20 --trace 0

   --trace 0 measures the end-to-end metrics with no tracing; --trace 1
   runs the same scenarios through the traced driver and reports the
   per-layer split.  The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

open Hostbench
module Stats = Dyno_core.Stats

let metric name unit value = (name, unit, value)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

let ratio a b = if b = 0.0 then 0.0 else a /. b
let median_of f l = Stat.median (List.map f l)

let end_to_end (w : Workload.t) (r : Runs.timed) =
  let updates = float_of_int (Workload.updates w) in
  let n = List.length r.Runs.costs in
  ( [
      metric "updates_per_s" "1/s"
        (median_of (fun c -> updates /. c.Runs.run_s) r.Runs.costs);
      metric "alloc_words_per_update" "words"
        (median_of (fun c -> c.Runs.words /. updates) r.Runs.costs);
      metric "setup_s" "s"
        (Stat.median (List.concat_map (fun c -> c.Runs.setup_s) r.Runs.costs));
      metric "oracle_s" "s" (Stat.median r.Runs.oracle_s);
      metric "peak_rss_mb" "MB" (peak_rss_mb ());
      metric "sim_busy_s" "sim_s" (Stat.median r.Runs.busy);
    ],
    (* Zero on most workloads, so they are printed here but kept out of
       the gated set (a zero median has no spread to bound). *)
    [
      metric "sim_abort_s" "sim_s" (Stat.median r.Runs.abort);
      metric "failed_ratio" "ratio" (Tally.ratio r.Runs.tally);
    ],
    Printf.sprintf
      "medians of %d run, %d setup and %d oracle sample(s); simulated \
       figures over %d finished scenario(s)"
      n
      (List.length (List.concat_map (fun c -> c.Runs.setup_s) r.Runs.costs))
      (List.length r.Runs.oracle_s) (List.length r.Runs.busy) )

let ops =
  [
    "core.step";
    "core.detect";
    "core.correct";
    "view.advance";
    "vm.sweep";
    "view.refresh";
    "va.adapt";
    "view.deliver";
    "sim.idle";
    "core.run";
    "core.oracle_strong";
    "relational.recompute";
    "workload.make";
    "workload.generate";
  ]

let per_layer (w : Workload.t) (r : Runs.traced) =
  let updates = float_of_int (Workload.updates w) in
  let per_scenario x = ratio x (float_of_int r.Runs.traced_scenarios) in
  let summary = Spans.summarize r.Runs.spans in
  let op_metrics name =
    let o =
      match List.find_opt (fun o -> String.equal o.Spans.op name) summary with
      | Some o -> o
      | None ->
          {
            Spans.op = name;
            calls = 0;
            self_s = 0.0;
            ns_p50 = 0.0;
            ns_p99 = 0.0;
            words_per_call = 0.0;
          }
    in
    [
      metric (name ^ ".calls") "count" (per_scenario (float_of_int o.Spans.calls));
      metric (name ^ ".self_s") "s" (per_scenario o.Spans.self_s);
      metric (name ^ ".ns_p50") "ns" o.Spans.ns_p50;
      metric (name ^ ".ns_p99") "ns" o.Spans.ns_p99;
      metric (name ^ ".words_per_call") "words" o.Spans.words_per_call;
    ]
  in
  let st f = median_of f r.Runs.stats in
  let count f = st (fun s -> float_of_int (f s)) in
  let pool f = median_of f r.Runs.pool in
  let sum_domains f (s : Dyno_obs.Hostprof.summary) =
    List.fold_left (fun a d -> a +. f d) 0.0 s.Dyno_obs.Hostprof.domains
  in
  List.concat_map op_metrics ops
  @ [
      metric "vm.probes_per_update" "count"
        (st (fun s -> float_of_int s.Stats.probes /. updates));
      metric "vm.compensations_per_update" "count"
        (st (fun s -> float_of_int s.Stats.compensations /. updates));
      metric "view.umq_len_max" "count"
        (Stat.median (List.map float_of_int r.Runs.umq_len_max));
      metric "core.detect.graphs" "count" (count (fun s -> s.Stats.detections));
      metric "core.aborts" "count" (count (fun s -> s.Stats.aborts));
      metric "core.merges" "count" (count (fun s -> s.Stats.merges));
      metric "core.useful_work_ratio" "ratio"
        (st (fun s -> 1.0 -. ratio s.Stats.abort_cost s.Stats.busy));
      metric "va.batches" "count" (count (fun s -> s.Stats.batches));
      metric "va.batch_updates" "count" (count (fun s -> s.Stats.batch_updates));
      metric "net.retries" "count" (count (fun s -> s.Stats.retries));
      metric "net.timeouts" "count" (count (fun s -> s.Stats.timeouts));
      metric "net.msgs_lost" "count" (count (fun s -> s.Stats.msgs_lost));
      metric "net.dups_dropped" "count" (count (fun s -> s.Stats.dups_dropped));
      metric "net.reorders_healed" "count"
        (count (fun s -> s.Stats.reorders_healed));
      metric "net.wait_sim_s" "sim_s" (st (fun s -> s.Stats.net_wait));
      metric "selfmaint.probes_avoided_ratio" "ratio"
        (st (fun s ->
             let a = float_of_int s.Stats.probes_avoided in
             ratio a (a +. float_of_int s.Stats.probes)));
      metric "selfmaint.bytes_saved" "B" (count (fun s -> s.Stats.bytes_saved));
      metric "core.cross_shard_barriers" "count"
        (count (fun s -> s.Stats.cross_shard_barriers));
      metric "sim.pool_tasks" "count"
        (pool (sum_domains (fun d -> float_of_int d.Dyno_obs.Hostprof.tasks)));
      metric "sim.pool_busy_share" "ratio"
        (pool (fun s ->
             ratio
               (sum_domains (fun d -> d.Dyno_obs.Hostprof.busy_s) s)
               (sum_domains (fun d -> d.Dyno_obs.Hostprof.lifetime_s) s)));
      metric "sim.pool_imbalance" "ratio"
        (pool (fun s -> s.Dyno_obs.Hostprof.imbalance));
      metric "obs.overhead_ratio" "ratio"
        (if r.Runs.noobs_run_s > 0.0 then
           (r.Runs.plain_run_s /. r.Runs.noobs_run_s) -. 1.0
         else 0.0);
      metric "trace.coverage" "ratio"
        (Spans.coverage r.Runs.spans ~wall_ns:r.Runs.wall_ns);
      metric "trace.overhead_ratio" "ratio"
        (if r.Runs.plain_run_s > 0.0 then
           (r.Runs.traced_run_s /. r.Runs.plain_run_s) -. 1.0
         else 0.0);
      metric "sim_abort_s" "sim_s" (st (fun s -> s.Stats.abort_cost));
      metric "failed_ratio" "ratio" (Tally.ratio r.Runs.t_tally);
    ]

let print_table metrics =
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-36s %18.6f %s\n" name v unit)
    metrics

let json ~correct (tally : Tally.t) metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct (Tally.attempted tally) (Tally.failed tally) (String.concat ", " m)

let usage = "run.sh --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME du_stream | sc_storm | sharded_selfmaint");
      ("--seed", Arg.Set_int seed, "N workload seed (>= 0)");
      ("--seconds", Arg.Set_int seconds, "S measurement window, host seconds");
      ("--trace", Arg.Set_int trace, "0|1 timed end-to-end run or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Workload.find !workload with
    | Some w when !seed >= 0 && !seconds > 0 && (!trace = 0 || !trace = 1) -> w
    | _ ->
        prerr_endline usage;
        exit 2
  in
  Printf.printf "workload %s, seed %d: %d rows/relation, %d DU + %d SC per scenario\n%!"
    w.Workload.name !seed w.Workload.rows w.Workload.dus w.Workload.scs;
  if !trace = 0 then begin
    let r = Runs.timed w ~seed:!seed ~seconds:(float_of_int !seconds) in
    if r.Runs.costs = [] then begin
      prerr_endline "no scenario finished: nothing was measured";
      exit 1
    end;
    let gated, shown, note = end_to_end w r in
    Printf.printf "end-to-end (%s):\n" note;
    print_table (gated @ shown);
    print_endline
      (json ~correct:(not r.Runs.tally.Tally.wrong_output) r.Runs.tally gated)
  end
  else begin
    let r = Runs.traced w ~seed:!seed in
    if r.Runs.stats = [] then begin
      prerr_endline "no scenario finished: nothing was traced";
      exit 1
    end;
    let dir = ".hostbench" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Printf.sprintf "%s/spans-%s-%d.jsonl" dir w.Workload.name !seed in
    Spans.write_jsonl path r.Runs.spans;
    let faithful = r.Runs.mismatches = [] in
    Printf.printf "per-layer (%d traced scenario(s), %d span(s) in %s); fidelity %s\n"
      r.Runs.traced_scenarios (List.length r.Runs.spans) path
      (if faithful then "ok"
       else "FAILED: per-layer numbers below are INVALID");
    let metrics = per_layer w r in
    print_table metrics;
    print_endline
      (json
         ~correct:(faithful && not r.Runs.t_tally.Tally.wrong_output)
         r.Runs.t_tally metrics)
  end
