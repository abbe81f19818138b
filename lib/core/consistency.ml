(** Consistency checkers: the correctness criteria of Section 4.4, made
    executable.

    - {b Convergence}: once every update is maintained, the view extent
      equals a full re-evaluation of the (current) view definition over the
      sources' current states.
    - {b Strong consistency} [20]: every committed view state equals the
      view definition {e at that commit} evaluated over a {e valid} source
      state vector, and those vectors advance monotonically in source-commit
      order — i.e. the view walks through real source states, in order,
      skipping none that it claimed to reflect.

    The strong check replays the commit log forward once: the cumulative
    set of maintained message ids determines, per source, the version the
    view claims to reflect, and private copies of the sources, advanced
    along [Dyno_source.Data_source.history], stand for exactly that
    state. *)

open Dyno_relational
open Dyno_view

type mismatch = {
  commit_index : int;
  at : float;
  reason : string;
}

type report = { checked : int; skipped : int; mismatches : mismatch list }

let ok r = r.mismatches = []

let pp_report ppf r =
  if ok r then
    Fmt.pf ppf "consistent (%d commit(s) checked, %d skipped)" r.checked
      r.skipped
  else
    Fmt.pf ppf "@[<v>%d INCONSISTENT commit(s) of %d:@,%a@]"
      (List.length r.mismatches)
      r.checked
      Fmt.(
        list ~sep:cut (fun ppf m ->
            Fmt.pf ppf "  commit %d at %.3fs: %s" m.commit_index m.at m.reason))
      r.mismatches

(** [convergent w mv] — final-state check.  [Ok true] when the extent
    matches a recompute; [Error] when the view is invalid (nothing to
    check). *)
let convergent (w : Query_engine.t) (mv : Mat_view.t) :
    (bool, string) Stdlib.result =
  let vd = Mat_view.def mv in
  if not (View_def.is_valid vd) then Error "view is undefined"
  else
    let q = View_def.peek vd in
    try
      let env (tr : Query.table_ref) =
        match Query_engine.source_relation w ~source:tr.source ~rel:tr.rel with
        | Some r -> r
        | None ->
            raise (Eval.Error (Fmt.str "missing %s@%s" tr.rel tr.source))
      in
      let expected = Eval.run ~planner:(Query_engine.planner w) ~catalog:env q in
      Ok (Relation.equal expected (Mat_view.extent mv))
    with Eval.Error e -> Error e

(* ------------------------------------------------------------------ *)
(* Strong consistency: one forward replay                             *)
(* ------------------------------------------------------------------ *)

(* One source replayed forward along its own history, in a private copy
   that nothing else reads or writes.  [hist.(v - 1)] is the commit that
   produced version [v] (versions are dense from 1). *)
type replayed = {
  ds : Dyno_source.Data_source.t;
  hist : Dyno_source.Data_source.hist_entry array;
  mutable at : int;  (** version the private state reflects *)
  mutable tables : (string, Relation.t) Hashtbl.t;
}

(* A private copy of a source's state at [version]; [snapshot_at]'s
   memoized state is shared and read-only. *)
let private_state ds ~version =
  let _, tables = Dyno_source.Data_source.snapshot_at ds ~version in
  let mine = Hashtbl.create (Hashtbl.length tables) in
  Hashtbl.iter (fun k r -> Hashtbl.replace mine k (Relation.copy r)) tables;
  mine

let replayed_relation (st : replayed) rel =
  match Hashtbl.find_opt st.tables rel with
  | Some r -> r
  | None -> raise (Catalog.No_such_relation rel)

(* [into += sign · r], in place, in O(|r|), signs kept.
   @raise Relation.Schema_mismatch when the schemas differ. *)
let accumulate ~sign into r =
  if not (Schema.equal (Relation.schema into) (Relation.schema r)) then
    raise (Relation.Schema_mismatch "strong replay: schemas differ");
  Relation.iter (fun t c -> Relation.add_unchecked into t (sign * c)) r

(* [q] with [first] moved to the front of FROM and every later alias
   joining one already placed where the WHERE clause allows it, so an
   indexed plan streams the (small) delta and probes the rest. *)
let delta_first (q : Query.t) ~first ~schemas =
  let binder = Eval.make_binder q schemas in
  let edges = Predicate.equijoin_pairs binder.Eval.owner (Query.where q) in
  let joins placed (tr : Query.table_ref) =
    List.exists
      (fun ((ax, _), (ay, _)) ->
        (String.equal ax tr.alias && List.mem ay placed)
        || (String.equal ay tr.alias && List.mem ax placed))
      edges
  in
  let others (a : Query.table_ref) =
    List.filter (fun (tr : Query.table_ref) ->
        not (String.equal tr.alias a.alias))
  in
  let rec order placed acc = function
    | [] -> List.rev acc
    | rest ->
        let next =
          match List.find_opt (joins placed) rest with
          | Some tr -> tr
          | None -> List.hd rest
        in
        order (next.alias :: placed) (next :: acc) (others next rest)
  in
  let from =
    order [ first.Query.alias ] [ first ] (others first (Query.from q))
  in
  Query.make ~name:(Query.name q) ~select:(Query.select q) ~from
    ~where:(Query.where q)

(** [check_strong w mv ~msg_index] — one forward replay of the commit log.

    For commit [k], the claimed source-state vector assigns each source the
    highest version among the maintained messages' [source_version]s seen
    so far (or the initial version 0).  The commit is consistent iff the
    view extent after it equals its definition snapshot evaluated over
    those source states.

    Nothing is rebuilt and nothing of size O(|V|) is compared per commit.
    The replay keeps a private copy of each source, advanced along its
    history as the claimed vector grows, the replayed extent [A] (the
    initial extent with every recorded change applied) and the difference
    [D = A − E] to the expected view [E].  A recorded view delta is added
    to [D]; a source data update at version [v] subtracts the view
    definition evaluated with that relation's alias bound to the update's
    delta and every other alias bound to the private states — SPJ views
    are linear in each relation, so that is exactly [E]'s change.  A commit
    passes when [D] is empty.  [E] is recomputed from scratch (and [D]
    reset to [A − E]) at the first commit, at a definition change, a
    source schema change, a replaced extent, a relation read under two
    aliases, after an evaluation error, and at the final commit — where an
    incremental [D] that disagrees with the recompute is itself reported.
    Commits without a recorded change are skipped (tracking off). *)
let check_strong (w : Query_engine.t) (mv : Mat_view.t)
    ~(msg_index : (int * (string * int)) list) : report =
  let planner = Query_engine.planner w in
  let registry = Query_engine.registry w in
  (* Message id -> (source, version); the first binding wins, as with an
     association list. *)
  let index = Hashtbl.create (max 16 (List.length msg_index)) in
  List.iter
    (fun (id, sv) -> if not (Hashtbl.mem index id) then Hashtbl.add index id sv)
    msg_index;
  (* Claimed version per source, sources in first-claimed order. *)
  let claimed : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let claim_order = ref [] in
  let states : (string, replayed) Hashtbl.t = Hashtbl.create 8 in
  let state src =
    match Hashtbl.find_opt states src with
    | Some st -> st
    | None ->
        let ds = Dyno_source.Registry.find registry src in
        let hist =
          Array.of_list (List.map snd (Dyno_source.Data_source.history ds))
        in
        let st =
          { ds; hist; at = 0; tables = private_state ds ~version:0 }
        in
        Hashtbl.add states src st;
        st
  in
  let env (tr : Query.table_ref) = replayed_relation (state tr.source) tr.rel in
  let a =
    ref
      (match Mat_view.initial mv with
      | Some r -> Relation.copy r
      | None -> Relation.create Schema.empty)
  in
  let card_a = ref (Relation.cardinality !a) in
  (* [D = A − E] while the incremental state is trustworthy. *)
  let d = ref None in
  let def_version = ref None in
  (* Delta-first rewrites of the current definition, per delta alias. *)
  let plans : (string, Query.t) Hashtbl.t = Hashtbl.create 4 in
  let commits = Mat_view.commits mv in
  let last = List.length commits - 1 in
  let checked = ref 0 and skipped = ref 0 in
  let mismatches = ref [] in
  let mismatch k (c : Mat_view.commit) reason =
    mismatches :=
      { commit_index = k; at = c.Mat_view.at; reason } :: !mismatches
  in
  let differs ~card_e =
    Fmt.str
      "extent (%d tuples) differs from view over claimed source states (%d \
       tuples)"
      !card_a card_e
  in
  List.iteri
    (fun k (c : Mat_view.commit) ->
      (* Advance the claimed vector with this commit's maintained ids. *)
      List.iter
        (fun id ->
          match Hashtbl.find_opt index id with
          | None -> ()
          | Some (src, v) -> (
              match Hashtbl.find_opt claimed src with
              | Some cur when v <= cur -> ()
              | Some _ -> Hashtbl.replace claimed src v
              | None ->
                  Hashtbl.replace claimed src v;
                  claim_order := !claim_order @ [ src ]))
        c.Mat_view.maintained;
      match (c.Mat_view.change, c.Mat_view.def_snapshot) with
      | Some change, Some (q, _) -> (
          incr checked;
          let stale =
            ref (Option.is_none !d || !def_version <> Some c.def_version)
          in
          if !def_version <> Some c.def_version then begin
            def_version := Some c.def_version;
            Hashtbl.reset plans
          end;
          (* [E]'s change for one source data update on [rel]. *)
          let on_du src rel delta =
            if not !stale then
              match
                List.filter
                  (fun (tr : Query.table_ref) ->
                    String.equal tr.source src && String.equal tr.rel rel)
                  (Query.from q)
              with
              | [] -> ()
              | [ tr ] -> (
                  try
                    let plan =
                      match Hashtbl.find_opt plans tr.alias with
                      | Some p -> p
                      | None ->
                          let schemas =
                            List.map
                              (fun (t : Query.table_ref) ->
                                (t.alias, Relation.schema (env t)))
                              (Query.from q)
                          in
                          let p = delta_first q ~first:tr ~schemas in
                          Hashtbl.replace plans tr.alias p;
                          p
                    in
                    (* The history's delta is shared: bind a copy, since
                       an indexed plan may register indexes on it. *)
                    let bound = Relation.copy delta in
                    let de =
                      Eval.run ~planner
                        ~catalog:(fun t ->
                          if String.equal t.alias tr.alias then bound
                          else env t)
                        plan
                    in
                    accumulate ~sign:(-1) (Option.get !d) de
                  with
                  | Eval.Error _ | Failure _ | Catalog.No_such_relation _
                  | Relation.Schema_mismatch _
                  ->
                    stale := true)
              | _ :: _ :: _ -> stale := true
          in
          List.iter
            (fun src ->
              let st = state src in
              let target = Hashtbl.find claimed src in
              while st.at < target do
                let v = st.at + 1 in
                (match st.hist.(v - 1) with
                | Dyno_source.Data_source.H_du { update; _ } ->
                    let rel = Update.rel update in
                    Relation.apply_delta_in_place
                      (replayed_relation st rel) (Update.delta update);
                    on_du src rel (Update.delta update)
                | Dyno_source.Data_source.H_sc _ ->
                    st.tables <- private_state st.ds ~version:v;
                    stale := true);
                st.at <- v
              done)
            !claim_order;
          (* Replay the view's own change. *)
          (match change with
          | Mat_view.Unchanged -> ()
          | Mat_view.Delta dv -> (
              accumulate ~sign:1 !a dv;
              card_a := !card_a + Relation.cardinality dv;
              match !d with
              | Some dd when not !stale -> (
                  try accumulate ~sign:1 dd dv
                  with Relation.Schema_mismatch _ -> stale := true)
              | _ -> ())
          | Mat_view.Replaced r ->
              a := Relation.copy r;
              card_a := Relation.cardinality r;
              stale := true);
          if (not !stale) && k <> last then begin
            match !d with
            | Some dd when not (Relation.is_empty dd) ->
                mismatch k c
                  (differs ~card_e:(!card_a - Relation.cardinality dd))
            | _ -> ()
          end
          else
            let incremental = if !stale then None else !d in
            d := None;
            Hashtbl.reset plans;
            try
              let e = Eval.run ~planner ~catalog:env q in
              if not (Schema.equal (Relation.schema e) (Relation.schema !a))
              then mismatch k c (differs ~card_e:(Relation.cardinality e))
              else begin
                let dd = Relation.diff !a e in
                d := Some dd;
                if not (Relation.is_empty dd) then
                  mismatch k c (differs ~card_e:(Relation.cardinality e))
                else
                  match incremental with
                  | Some di when not (Relation.equal di dd) ->
                      mismatch k c
                        (Fmt.str
                           "incremental replay (%d tuple(s) off) disagrees \
                            with a recompute of the view"
                           (Relation.mass di))
                  | _ -> ()
              end
            with
            | Eval.Error e | Failure e -> mismatch k c e
            | Catalog.No_such_relation r ->
                mismatch k c
                  (Fmt.str "relation %s absent at claimed version" r))
      | _ -> incr skipped)
    commits;
  { checked = !checked; skipped = !skipped; mismatches = List.rev !mismatches }
