(** Executable consistency criteria (Section 4.4).

    {b Convergence}: the final extent equals a re-evaluation of the
    current view definition over the sources' current states.

    {b Strong consistency} (Zhuge et al.): every committed view state
    equals the view definition at that commit evaluated over a valid
    source-state vector, advancing monotonically in source-commit order.
    The claimed vector is derived from the maintained message ids; states
    are replayed forward from the sources' version histories. *)

open Dyno_view

type mismatch = { commit_index : int; at : float; reason : string }

type report = { checked : int; skipped : int; mismatches : mismatch list }

val ok : report -> bool

val pp_report : Format.formatter -> report -> unit

val convergent : Query_engine.t -> Mat_view.t -> (bool, string) result
(** [Ok true] when the extent matches a recompute; [Error] when the view
    is undefined (nothing to check against). *)

val check_strong :
  Query_engine.t ->
  Mat_view.t ->
  msg_index:(int * (string * int)) list ->
  report
(** [check_strong w mv ~msg_index] checks every tracked commit in one
    forward replay of the view's change log and the sources' histories,
    in time linear in the total delta size (plus one re-evaluation at each
    definition change, source schema change, replaced extent and at the
    final commit); [msg_index] maps a message id to [(source id, source
    version)] (see [Dyno_workload.Scenario.msg_index]).  Commits without a
    recorded change (tracking off) are counted as skipped. *)
