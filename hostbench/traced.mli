(** The traced driver: the serial pessimistic maintenance loop of
    {!Dyno_core.Scheduler.run} (default run configuration: one shard,
    compensated incremental maintenance, no grouping, serial dispatch,
    simulated runtime, observability off), rebuilt from the program's
    public calls so that every call into a layer is wrapped in a
    {!Spans} span.

    Loop per iteration: [view.deliver] ({!Dyno_view.Query_engine.deliver_due});
    on an empty queue [sim.idle] ({!Dyno_view.Query_engine.idle_until});
    otherwise one [core.step] holding [core.detect] (pre-exec or forced
    detection), [view.advance] (the detection / correction charges, in the
    scheduler's order), [core.correct] ({!Dyno_core.Correct.apply}), then
    [vm.sweep] + [view.refresh] for a single data update or [va.adapt]
    ({!Dyno_core.Scheduler.maintain_entry}) for a schema change or merged
    batch. *)

type result = {
  stats : Dyno_core.Stats.t;
  umq_len_max : int;  (** longest queue seen after a delivery *)
}

val run : Spans.t -> Dyno_workload.Scenario.t -> result
(** Drive the scenario's queue to completion, recording spans.
    Raises whatever the program raises, exactly where
    {!Dyno_workload.Scenario.run} would. *)

(** What a finished (or crashed) maintenance run left behind. *)
type outcome =
  | Finished of {
      extent : Dyno_relational.Relation.t;
      stats : Dyno_core.Stats.t;
    }
  | Raised of string  (** the exception, printed *)

val fidelity : timed:outcome -> traced:outcome -> string list
(** Differences between a plain {!Dyno_workload.Scenario.run} and the
    traced driver on the same scenario: final extent, view commits,
    probes, aborts, merges and final simulated clock (compared exactly),
    or the exception each raised.  [[]] means the traced run is
    faithful. *)
