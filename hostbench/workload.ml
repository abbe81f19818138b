open Dyno_workload

type t = {
  name : string;
  rows : int;
  dus : int;
  scs : int;
  sc_interval : float;
  strong : bool;
  faults : bool;
  shards : int;
  parallel : int;
  self_maint : bool;
  domains : int option;
  observe : bool;
  scenarios : int;
}

let serial_defaults =
  {
    name = "";
    rows = 0;
    dus = 0;
    scs = 0;
    sc_interval = 25.0;
    strong = false;
    faults = false;
    shards = 1;
    parallel = 1;
    self_maint = false;
    domains = None;
    observe = false;
    scenarios = 1;
  }

(* Large relations and no schema changes: almost all host work is the
   SWEEP probe → source answer → Eval → Mat_view.refresh path, whose cost
   grows with |R|; detection only takes the O(1) flag fast path.  Two
   scenarios, so its set-up and oracle timings come from two moments of
   the run rather than one. *)
let du_stream =
  {
    serial_defaults with
    name = "du_stream";
    rows = 20_000;
    dus = 2000;
    scenarios = 2;
  }

(* A schema-change train near the Figure 10 abort peak (SC every 25 s,
   about one SC maintenance time): the work moves to detection,
   correction, VS/VA adaptation, version history and the quadratic strong
   oracle.  At 1000 rows the correction race in Scheduler.detect_and_correct
   fires on some seeds; it must show in failed_ratio, so do not shrink. *)
let sc_storm =
  {
    serial_defaults with
    name = "sc_storm";
    rows = 1000;
    dus = 1000;
    scs = 20;
    strong = true;
  }

(* The maintenance layer used the other way round: sweeps are answered
   from auxiliary projections while every admission writes them, across
   three shards, the domain-pool sweep path, a faulty channel and live
   recorders — none of which the two serial workloads touch.  The pool has
   one participant: with a second domain, throughput on a two-vCPU shared
   host swung 550–1900 updates/s between runs minutes apart (it waits on
   the other vCPU at every pool round and minor GC), while one domain held
   1360–1470 in alternating runs. *)
let sharded_selfmaint =
  {
    serial_defaults with
    name = "sharded_selfmaint";
    rows = 2000;
    dus = 2000;
    scs = 3;
    sc_interval = 200.0;
    faults = true;
    shards = 3;
    parallel = 4;
    self_maint = true;
    domains = Some 1;
    observe = true;
    scenarios = 3;
  }

let all = [ du_stream; sc_storm; sharded_selfmaint ]
let find name = List.find_opt (fun w -> String.equal w.name name) all

let serial w =
  w.shards = 1 && w.parallel = 1 && (not w.self_maint) && w.domains = None

let scenario_seed w ~seed i = (seed * w.scenarios) + i
let max_attempts w = 4 * w.scenarios
let updates w = w.dus + w.scs
let du_interval = 1.0

let timeline w ~seed =
  Generator.mixed ~rows:w.rows ~seed ~n_dus:w.dus ~du_interval
    ~sc_interval:w.sc_interval
    ~sc_kinds:(if w.scs = 0 then [] else Generator.drop_then_renames w.scs)
    ()

(* The CLI's cost model and fault wiring, so [repro] replays the same run. *)
let cost w = Dyno_sim.Cost_model.scaled (100_000.0 /. float_of_int w.rows)

let faults w =
  if w.faults then
    {
      Dyno_net.Channel.reliable with
      loss = 0.1;
      dup = 0.1;
      reorder = 0.2;
      reorder_delay = 1.5;
      retransmit = (cost w).Dyno_sim.Cost_model.retransmit_interval;
    }
  else Dyno_net.Channel.reliable

let obs w ~hostprof =
  if w.observe || hostprof then Dyno_obs.Obs.create ~hostprof ()
  else Dyno_obs.Obs.disabled

let config w ~seed ~obs =
  let rows = w.rows and snapshots = w.strong and shards = w.shards in
  let cost = cost w and faults = faults w in
  Scenario.Config.(
    default |> with_rows rows |> with_cost cost |> with_snapshots snapshots
    |> with_faults faults |> with_net_seed seed |> with_obs obs
    |> with_shards shards)

let run_config w =
  let parallel = w.parallel and self_maint = w.self_maint in
  let runtime = match w.domains with None -> `Simulated | Some n -> `Domains n in
  Dyno_core.Run_config.(
    default |> with_parallel parallel |> with_self_maint self_maint
    |> with_runtime runtime)

let repro w ~seed =
  String.concat ""
    [
      Printf.sprintf "dyno run --rows %d --dus %d --scs %d --sc-interval %g"
        w.rows w.dus w.scs w.sc_interval;
      (if w.faults then " --loss 0.1 --dup 0.1 --reorder 0.2" else "");
      (if w.shards > 1 then Printf.sprintf " --shards %d" w.shards else "");
      (if w.parallel > 1 then Printf.sprintf " --parallel %d" w.parallel
       else "");
      (if w.self_maint then " --self-maint" else "");
      (match w.domains with
      | Some n -> Printf.sprintf " --runtime domains:%d" n
      | None -> "");
      Printf.sprintf " --seed %d" seed;
      (if w.scs = 0 then
         "  # the CLI adds one drop-attribute SC that this scenario lacks"
       else "");
    ]
