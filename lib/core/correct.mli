(** Dependency correction (Section 4.2): install a legal order in the UMQ.
    Cycles are merged — sources cannot abort, so a maintenance deadlock is
    resolved by processing its members as one atomic batch. *)

open Dyno_view

type report = {
  reordered : bool;  (** the queue order actually changed *)
  merged_cycles : int;
  merged_updates : int;
  merged_members : int list list;
      (** message ids of each collapsed cycle — merge provenance *)
  nodes : int;
  edges : int;
}

val apply : Umq.t -> Dep_graph.t -> report
(** [apply umq g] corrects the queue according to graph [g] and installs
    the legal order, followed by the entries queued after [g] was built
    (in arrival order).  The set of queued updates is preserved exactly
    ({!Umq.replace} enforces it). *)

val merge_all : Umq.t -> report
(** The strawman correction the paper argues against: collapse the whole
    queue into a single batch (members in commit order).  Kept as an
    experimental baseline. *)
