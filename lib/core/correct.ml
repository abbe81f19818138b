(** Dependency correction (Section 4.2): reorder the UMQ into a legal
    order.

    Cycles in the dependency graph (maintenance deadlocks) cannot be broken
    by aborting a participant — source updates are already committed and
    unabortable — so they are {e merged} into batch nodes processed
    atomically by the batch view-adaptation algorithm; the condensed graph
    is then topologically sorted.  By Theorem 2 the resulting order has all
    dependencies safe, so (Theorem 1) no broken query can arise from the
    updates currently queued. *)

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

(** [apply umq g] corrects the queue according to graph [g] and installs
    the legal order, followed by any entries queued after [g] was built.
    Returns what happened, for stats/trace. *)
let apply (umq : Umq.t) (g : Dep_graph.t) : report =
  let before = Umq.entries umq in
  let c = Dep_graph.correct g in
  (* Charging the detection pass may have delivered messages the graph
     never saw: they keep their arrival order after the corrected
     prefix. *)
  let covered = Hashtbl.create 64 in
  List.iter
    (fun e ->
      List.iter (fun id -> Hashtbl.replace covered id ()) (Umq.entry_ids e))
    c.Dep_graph.order;
  let order =
    c.Dep_graph.order
    @ List.filter
        (fun e -> not (List.exists (Hashtbl.mem covered) (Umq.entry_ids e)))
        before
  in
  let reordered =
    List.length before <> List.length order
    || List.exists2
         (fun a b -> Umq.entry_ids a <> Umq.entry_ids b)
         before order
  in
  if reordered then Umq.replace umq order;
  {
    reordered;
    merged_cycles = c.Dep_graph.merged_cycles;
    merged_updates = c.Dep_graph.merged_updates;
    merged_members = c.Dep_graph.merged_members;
    nodes = Dep_graph.size g;
    edges = List.length (Dep_graph.edges g);
  }

(** [merge_all umq] — the strawman correction: collapse the whole queue
    into a single batch (messages in commit order).  Loses intermediate MV
    states and produces one long, abort-prone maintenance process; kept as
    an experimental baseline (ablation). *)
let merge_all (umq : Umq.t) : report =
  let msgs =
    List.sort
      (fun a b -> Int.compare (Update_msg.id a) (Update_msg.id b))
      (Umq.messages umq)
  in
  match msgs with
  | [] | [ _ ] ->
      {
        reordered = false;
        merged_cycles = 0;
        merged_updates = 0;
        merged_members = [];
        nodes = List.length msgs;
        edges = 0;
      }
  | _ ->
      Umq.replace umq [ Umq.Batch msgs ];
      {
        reordered = true;
        merged_cycles = 1;
        merged_updates = List.length msgs;
        merged_members = [ List.map Update_msg.id msgs ];
        nodes = List.length msgs;
        edges = 0;
      }
