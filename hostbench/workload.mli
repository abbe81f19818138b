(** The benchmark's workloads: each is a fixed shape of the paper's
    6-relation / 3-source world, instantiated per seed.  The program sees
    only the generated timeline; seeds never reach it otherwise. *)

type t = {
  name : string;
  rows : int;  (** tuples loaded per relation *)
  dus : int;  (** data updates, one per simulated second *)
  scs : int;  (** schema changes: one drop-attribute then renames; 0 = none *)
  sc_interval : float;  (** simulated seconds between schema changes *)
  strong : bool;
      (** keep per-commit view snapshots and prove strong consistency on
          every scenario *)
  faults : bool;  (** loss 0.1, dup 0.1, reorder 0.2 on the update channel *)
  shards : int;
  parallel : int;
  self_maint : bool;
  domains : int option;  (** [`Domains n] runtime; [None] = simulated *)
  observe : bool;  (** spans + metrics + lineage recorders on *)
  scenarios : int;  (** completed scenarios every run measures *)
}

val du_stream : t
val sc_storm : t
val sharded_selfmaint : t
val all : t list
val find : string -> t option

val serial : t -> bool
(** One shard, serial pessimistic loop, simulated runtime: the shape the
    traced driver ({!Traced}) mirrors. *)

val scenario_seed : t -> seed:int -> int -> int
(** Seed of the [i]-th scenario a run with benchmark seed [seed] tries:
    [seed * scenarios + i], so consecutive benchmark seeds cover
    consecutive scenario seeds. *)

val max_attempts : t -> int
(** Scenarios a run may try before giving up on reaching
    [scenarios] completed ones (failed scenarios are counted, not
    retried). *)

val updates : t -> int
(** Source updates per scenario (DUs + SCs). *)

val timeline : t -> seed:int -> Dyno_sim.Timeline.t

val obs : t -> hostprof:bool -> Dyno_obs.Obs.t
(** A fresh recorder set for one scenario ({!Dyno_obs.Obs.disabled} unless
    the workload observes or [hostprof] is asked for). *)

val config : t -> seed:int -> obs:Dyno_obs.Obs.t -> Dyno_workload.Scenario.Config.t
val run_config : t -> Dyno_core.Run_config.t

val repro : t -> seed:int -> string
(** The [dyno run …] command line that replays scenario [seed]. *)
