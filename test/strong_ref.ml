(* Reference strong-consistency oracle: the direct, quadratic reading of
   the criterion that [Dyno_core.Consistency.check_strong] implements as a
   forward replay.  For every tracked commit it rebuilds the view extent
   by folding the commit log from the initial extent, reconstructs each
   source at its claimed version with [Data_source.relation_at], and
   compares a full re-evaluation of the commit's definition against the
   rebuilt extent.  O(|V|) per commit and an undo walk per claimed
   vector: kept only to cross-check the library oracle. *)

open Dyno_relational
open Dyno_view
open Dyno_core

(* The extent after each commit, folded from [Mat_view.initial]; [None]
   for an untracked commit. *)
let extents (mv : Mat_view.t) : Relation.t option list =
  let commits = Mat_view.commits mv in
  match Mat_view.initial mv with
  | None -> List.map (fun _ -> None) commits
  | Some base ->
      let cur = ref base in
      List.map
        (fun (c : Mat_view.commit) ->
          match c.Mat_view.change with
          | None -> None
          | Some Mat_view.Unchanged -> Some !cur
          | Some (Mat_view.Delta d) ->
              cur := Relation.sum !cur d;
              Some !cur
          | Some (Mat_view.Replaced r) ->
              cur := Relation.copy r;
              Some !cur)
        commits

let check_strong (w : Query_engine.t) (mv : Mat_view.t)
    ~(msg_index : (int * (string * int)) list) : Consistency.report =
  let versions : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let checked = ref 0 and skipped = ref 0 in
  let mismatches = ref [] in
  let mismatch k (c : Mat_view.commit) reason =
    mismatches :=
      { Consistency.commit_index = k; at = c.Mat_view.at; reason }
      :: !mismatches
  in
  List.iteri
    (fun k ((c : Mat_view.commit), extent) ->
      List.iter
        (fun id ->
          match List.assoc_opt id msg_index with
          | None -> ()
          | Some (src, v) ->
              let cur =
                Option.value ~default:0 (Hashtbl.find_opt versions src)
              in
              if v > cur then Hashtbl.replace versions src v)
        c.Mat_view.maintained;
      match (extent, c.Mat_view.def_snapshot) with
      | Some extent, Some (q, _) -> (
          incr checked;
          try
            let env (tr : Query.table_ref) =
              let s =
                Dyno_source.Registry.find (Query_engine.registry w) tr.source
              in
              let v =
                Option.value ~default:0 (Hashtbl.find_opt versions tr.source)
              in
              Dyno_source.Data_source.relation_at s ~version:v tr.rel
            in
            let expected =
              Eval.run ~planner:(Query_engine.planner w) ~catalog:env q
            in
            if not (Relation.equal expected extent) then
              mismatch k c
                (Fmt.str
                   "extent (%d tuples) differs from view over claimed source \
                    states (%d tuples)"
                   (Relation.cardinality extent)
                   (Relation.cardinality expected))
          with
          | Eval.Error e | Failure e -> mismatch k c e
          | Catalog.No_such_relation r ->
              mismatch k c (Fmt.str "relation %s absent at claimed version" r))
      | _ -> incr skipped)
    (List.combine (Mat_view.commits mv) (extents mv));
  { checked = !checked; skipped = !skipped; mismatches = List.rev !mismatches }
