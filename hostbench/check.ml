(** Output checks run on every finished scenario.  Each returns [None]
    when the output passes, or the reason it does not. *)

module Scenario = Dyno_workload.Scenario
module Stats = Dyno_core.Stats

let convergence t =
  match Scenario.check_convergent t with
  | Ok true -> None
  | Ok false -> Some "diverged: final extent differs from a recompute"
  | Error e -> Some ("convergence not checkable: " ^ e)

let strong t =
  let r = Scenario.check_strong t in
  if Dyno_core.Consistency.ok r then None
  else
    Some
      (Printf.sprintf "strong consistency violated at %d of %d commit(s)"
         (List.length r.Dyno_core.Consistency.mismatches)
         r.Dyno_core.Consistency.checked)

(* A change that silently turns off the pool, self-maintenance or
   sharding must fail here rather than look faster. *)
let mechanisms (w : Workload.t) (s : Stats.t) =
  List.filter_map Fun.id
    [
      (if w.Workload.domains <> None && s.Stats.mcore_tasks = 0 then
         Some "no sweep ran on the worker-domain pool"
       else None);
      (if w.Workload.self_maint && s.Stats.probes_avoided = 0 then
         Some "self-maintenance avoided no probe"
       else None);
      (if w.Workload.shards > 1 && s.Stats.cross_shard_barriers = 0 then
         Some "no cross-shard barrier ran"
       else None);
    ]
  |> function
  | [] -> None
  | l -> Some (String.concat "; " l)
