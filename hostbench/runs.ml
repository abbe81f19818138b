(** The two kinds of benchmark run.

    A timed run first gathers [scenarios] finished scenarios, trying the
    seeds derived from the benchmark seed in order (a failed one is
    counted and the next is tried), each proven correct by the full
    oracle.  It then replays those scenarios, checking convergence every
    time, while the next replay still fits in the measurement window.
    The window counts host time inside {!Dyno_workload.Scenario.make} and
    {!Dyno_workload.Scenario.run} only: timeline generation and the
    oracles come on top.

    A traced run takes the same scenarios once each: a plain run, then
    the same scenario under span tracing, then the fidelity check. *)

module Scenario = Dyno_workload.Scenario
module Stats = Dyno_core.Stats

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9
let timed_s f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

(* Words allocated, all domains: quick_stat read after a run returns
   includes the joined worker domains' counters. *)
let alloc_words () =
  let g = Gc.quick_stat () in
  g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words

type cost = {
  setup_s : float list;  (** every timed Scenario.make repetition *)
  run_s : float;
  words : float;
}

(* Set-up and convergence are short and deterministic, so each is timed
   [reps] times (a fixed count, so memory use does not depend on speed);
   returns the last result and every timing. *)
let reps = 3

let repeat ?(prep = ignore) f =
  let rec go n times =
    prep ();
    let v, s = timed_s f in
    if n = 1 then (v, s :: times) else go (n - 1) (s :: times)
  in
  go reps []

(* Scenario.make (repeated, see [repeat]) and Scenario.run on a fresh
   timeline, timed.  Garbage left by the previous world is collected
   before each make, outside the timing, so no step pays for its
   predecessor. *)
let make_and_run ?(obs_of = fun w -> Workload.obs w ~hostprof:false) w ~seed =
  let timeline = Workload.timeline w ~seed in
  let t, setup_s =
    repeat ~prep:Gc.full_major (fun () ->
        Scenario.make (Workload.config w ~seed ~obs:(obs_of w)) ~timeline)
  in
  Gc.full_major ();
  let w0 = alloc_words () in
  let stats, run_s =
    timed_s (fun () -> Scenario.run t ~config:(Workload.run_config w))
  in
  (t, stats, { setup_s; run_s; words = alloc_words () -. w0 })

let first_problem checks =
  List.fold_left
    (fun acc check -> match acc with Some _ -> acc | None -> check ())
    None checks

(* Try derived seeds until [w.scenarios] scenarios finished and passed
   [attempt], or the attempt budget is spent.  Returns the finished
   seeds, oldest first. *)
let gather tally (w : Workload.t) ~seed attempt =
  let rec go i finished =
    if List.length finished >= w.Workload.scenarios
       || i >= Workload.max_attempts w
    then List.rev finished
    else
      let s = Workload.scenario_seed w ~seed i in
      match Tally.guard tally w ~seed:s (fun () -> attempt s) with
      | Some true -> go (i + 1) (s :: finished)
      | Some false | None -> go (i + 1) finished
  in
  go 0 []

type timed = {
  tally : Tally.t;
  costs : cost list;  (** every measured make + run *)
  oracle_s : float list;  (** oracle samples, see [full_oracle] *)
  busy : float list;  (** Stats.busy, one per finished scenario *)
  abort : float list;  (** Stats.abort_cost, one per finished scenario *)
}

(* The full oracle on a finished scenario: the first problem found, and
   its oracle samples.  Convergence is timed [reps] times; on a workload
   that also proves strong consistency, the one sample is the median
   convergence time plus the strong proof. *)
let full_oracle (w : Workload.t) t stats =
  let conv, conv_times = repeat (fun () -> Check.convergence t) in
  let strong, strong_s =
    if conv = None && w.Workload.strong then timed_s (fun () -> Check.strong t)
    else (None, 0.0)
  in
  ( first_problem
      [ (fun () -> conv); (fun () -> strong); (fun () -> Check.mechanisms w stats) ],
    if w.Workload.strong then [ Stat.median conv_times +. strong_s ]
    else conv_times )

let timed (w : Workload.t) ~seed ~seconds =
  let tally = Tally.create () in
  let costs = ref [] and oracle = ref [] and busy = ref [] and abort = ref [] in
  let measured () =
    List.fold_left
      (fun a c -> a +. List.fold_left ( +. ) c.run_s c.setup_s)
      0.0 !costs
  in
  let passed s problem =
    Option.iter (Tally.wrong tally w ~seed:s) problem;
    problem = None
  in
  let finished =
    gather tally w ~seed (fun s ->
        let t, stats, c = make_and_run w ~seed:s in
        let problem, o = full_oracle w t stats in
        let ok = passed s problem in
        if ok then begin
          costs := c :: !costs;
          oracle := o @ !oracle;
          busy := stats.Stats.busy :: !busy;
          abort := stats.Stats.abort_cost :: !abort
        end;
        ok)
  in
  let rec replay last_pass =
    let before = measured () in
    (* A pass that measured nothing (every replay failed) ends the run. *)
    if last_pass > 0.0 && before +. last_pass <= seconds then begin
      List.iter
        (fun s ->
          ignore
            (Tally.guard tally w ~seed:s (fun () ->
                 let t, stats, c = make_and_run w ~seed:s in
                 let conv, conv_s = timed_s (fun () -> Check.convergence t) in
                 let problem =
                   first_problem
                     [ (fun () -> conv); (fun () -> Check.mechanisms w stats) ]
                 in
                 if passed s problem then begin
                   costs := c :: !costs;
                   (* Without a strong proof, convergence is the whole
                      oracle, so every replay adds a sample. *)
                   if not w.Workload.strong then oracle := conv_s :: !oracle
                 end)))
        finished;
      replay (measured () -. before)
    end
  in
  replay (measured ());
  { tally; costs = !costs; oracle_s = !oracle; busy = !busy; abort = !abort }

(* ---- traced runs ---------------------------------------------------- *)

type traced = {
  t_tally : Tally.t;
  spans : Spans.span list;
  traced_scenarios : int;
  wall_ns : int;  (** host ns of the traced sections, summed *)
  plain_run_s : float;  (** Σ untraced maintenance seconds *)
  traced_run_s : float;  (** Σ traced maintenance seconds, same scenarios *)
  noobs_run_s : float;  (** Σ maintenance seconds with recorders off *)
  stats : Stats.t list;  (** traced run's statistics per finished scenario *)
  umq_len_max : int list;
  pool : Dyno_obs.Hostprof.summary list;
  mismatches : (int * string list) list;  (** fidelity failures by seed *)
}

let outcome_of f =
  match f () with
  | t, (stats : Stats.t) ->
      Traced.Finished { extent = Dyno_view.Mat_view.extent t.Scenario.mv; stats }
  | exception e -> Traced.Raised (Printexc.to_string e)

let traced (w : Workload.t) ~seed =
  let tally = Tally.create () in
  let sp = Spans.create () in
  let traced_n = ref 0 in
  let wall = ref 0 and plain_s = ref 0.0 and traced_s = ref 0.0
  and noobs_s = ref 0.0 in
  let stats = ref [] and lens = ref [] and pool = ref [] and mism = ref [] in
  let attempt s =
    (* Untraced reference run of the same scenario. *)
    let plain_run_s = ref 0.0 in
    let plain =
      outcome_of (fun () ->
          let t, st, c = make_and_run w ~seed:s in
          plain_run_s := c.run_s;
          (t, st))
    in
    Gc.full_major ();
    let first_span = Spans.mark sp in
    let t0 = Spans.host_ns () in
    let timeline =
      Spans.with_span sp "workload.generate" (fun () ->
          Workload.timeline w ~seed:s)
    in
    let obs = Workload.obs w ~hostprof:(not (Workload.serial w)) in
    let t =
      Spans.with_span sp "workload.make" (fun () ->
          Scenario.make (Workload.config w ~seed:s ~obs) ~timeline)
    in
    let traced_out, loop_s =
      timed_s (fun () ->
          match
            if Workload.serial w then Traced.run sp t
            else
              Spans.with_span sp "core.run" (fun () ->
                  {
                    Traced.stats = Scenario.run t ~config:(Workload.run_config w);
                    umq_len_max = 0;
                  })
          with
          | r -> Ok r
          | exception e -> Error (Printexc.to_string e))
    in
    let traced_outcome =
      match traced_out with
      | Ok r ->
          Traced.Finished
            {
              extent = Dyno_view.Mat_view.extent t.Scenario.mv;
              stats = r.Traced.stats;
            }
      | Error e -> Traced.Raised e
    in
    (match Traced.fidelity ~timed:plain ~traced:traced_outcome with
    | [] -> ()
    | m ->
        mism := (s, m) :: !mism;
        List.iter
          (Printf.printf "FIDELITY %s seed %d: %s\n%!" w.Workload.name s)
          m);
    let finished =
      match (plain, traced_out) with
      | Traced.Raised e, _ | _, Error e ->
          Tally.fail tally w ~seed:s e;
          None
      | Traced.Finished _, Ok r -> (
          match
            first_problem
              [
                (fun () ->
                  Spans.with_span sp "relational.recompute" (fun () ->
                      Check.convergence t));
                (fun () ->
                  if w.Workload.strong then
                    Spans.with_span sp "core.oracle_strong" (fun () ->
                        Check.strong t)
                  else None);
                (fun () -> Check.mechanisms w r.Traced.stats);
              ]
          with
          | None -> Some r
          | Some e ->
              Tally.wrong tally w ~seed:s e;
              None)
    in
    match finished with
    | None ->
        Spans.drop_from sp first_span;
        false
    | Some r ->
        wall := !wall + (Spans.host_ns () - t0);
        incr traced_n;
        plain_s := !plain_s +. !plain_run_s;
        traced_s := !traced_s +. loop_s;
        stats := r.Traced.stats :: !stats;
        lens := r.Traced.umq_len_max :: !lens;
        let hp = Dyno_obs.Obs.hostprof obs in
        if Dyno_obs.Hostprof.enabled hp then
          pool := Dyno_obs.Hostprof.drain hp :: !pool;
        if w.Workload.observe then begin
          (* The same scenario with every recorder off. *)
          let _, _, c0 =
            make_and_run ~obs_of:(fun _ -> Dyno_obs.Obs.disabled) w ~seed:s
          in
          noobs_s := !noobs_s +. c0.run_s
        end;
        true
  in
  ignore (gather tally w ~seed attempt : int list);
  {
    t_tally = tally;
    spans = Spans.spans sp;
    traced_scenarios = !traced_n;
    wall_ns = !wall;
    plain_run_s = !plain_s;
    traced_run_s = !traced_s;
    noobs_run_s = !noobs_s;
    stats = !stats;
    umq_len_max = !lens;
    pool = !pool;
    mismatches = List.rev !mism;
  }
