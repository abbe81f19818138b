(** Maintenance-query construction.

    A view maintenance process decomposes the view query into per-source
    probe queries (the paper's Query (2)): for each relation joined by the
    view, a probe ships the current partial result to the relation's source
    and asks for the joining tuples.  This module builds those probes and
    the name plumbing around them.

    Partial results use {e prefixed} attribute names [alias__attr] so that
    a single flat schema can carry columns of many view aliases without
    clashes. *)

open Dyno_relational

exception Unsupported of string

let unsupported fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

(** Name of view attribute [alias.attr] inside a partial result. *)
let pname alias attr = alias ^ "__" ^ attr

(** Alias under which the shipped partial result is bound at the source. *)
let partial_alias = "__p"

(** [owner_of_schemas schemas] resolves unqualified references against the
    view manager's believed alias schemas.
    @raise Eval.Error on unknown/ambiguous references. *)
let owner_of_schemas (schemas : (string * Schema.t) list)
    (r : Attr.Qualified.t) =
  let attr = Attr.Qualified.attr r in
  match List.filter (fun (_, s) -> Schema.mem s attr) schemas with
  | [ (a, _) ] -> a
  | [] -> raise (Eval.Error (Fmt.str "unknown attribute %s" attr))
  | many ->
      raise
        (Eval.Error
           (Fmt.str "ambiguous attribute %s (%s)" attr
              (String.concat ", " (List.map fst many))))

(** [alias_of_ref owner r] is the alias a reference belongs to. *)
let alias_of_ref owner (r : Attr.Qualified.t) =
  match Attr.Qualified.rel r with Some a -> a | None -> owner r

(** [needed_attrs q owner alias] is the deduplicated list of attributes of
    [alias] that the view query uses anywhere (select list, predicates). *)
let needed_attrs (q : Query.t) owner alias =
  let names = Query.refs_of_alias q alias owner in
  List.fold_left
    (fun acc n -> if List.mem n acc then acc else acc @ [ n ])
    [] names

(** Atoms of the view predicate that are local to [alias] (reference only
    that alias and constants), with references qualified explicitly. *)
let local_atoms (q : Query.t) owner alias =
  List.filter_map
    (fun (a : Predicate.atom) ->
      let refs = Predicate.refs [ a ] in
      let aliases =
        List.sort_uniq String.compare (List.map (alias_of_ref owner) refs)
      in
      match aliases with
      | [ x ] when String.equal x alias ->
          let qualify = function
            | Predicate.Ref r ->
                Predicate.Ref (Attr.Qualified.make ~rel:alias (Attr.Qualified.attr r))
            | c -> c
          in
          Some { a with Predicate.lhs = qualify a.lhs; rhs = qualify a.rhs }
      | _ -> None)
    q.Query.where

(** Cross-alias equality atoms between [alias] and any alias in [bound]
    (attributes qualified).  Returned as [(attr_of_alias, bound_alias,
    attr_of_bound)] triples. *)
let join_pairs_with (q : Query.t) owner alias bound =
  List.filter_map
    (fun ((ax, qx), (ay, qy)) ->
      let open Attr.Qualified in
      if String.equal ax alias && List.mem ay bound then
        Some (attr qx, ay, attr qy)
      else if String.equal ay alias && List.mem ax bound then
        Some (attr qy, ax, attr qx)
      else None)
    (Predicate.equijoin_pairs owner q.Query.where)

(** Cross-alias atoms that are not hash-joinable equalities; applied as a
    residual filter once all aliases are joined into the partial. *)
let residual_atoms (q : Query.t) owner =
  List.filter
    (fun (a : Predicate.atom) ->
      let refs = Predicate.refs [ a ] in
      let aliases =
        List.sort_uniq String.compare (List.map (alias_of_ref owner) refs)
      in
      List.length aliases > 1
      &&
      match (a.op, a.lhs, a.rhs) with
      | Predicate.Eq, Predicate.Ref _, Predicate.Ref _ -> false
      | _ -> true)
    q.Query.where

(** [probe_query q owner (tr, partial_schema, bound_aliases)] builds the
    maintenance query probing table [tr] with the current partial result
    shipped along: it selects [tr]'s needed attributes (renamed to their
    prefixed partial names) plus all partial columns, restricted by [tr]'s
    local filters and its join conditions with the already-bound aliases. *)
let probe_query_names (q : Query.t) owner (tr : Query.table_ref) ~needed
    ~(partial_names : string list) ~(bound : string list) : Query.t =
  if needed = [] then
    (* A relation joined without contributing any attribute: probe its
       cardinality via all attributes of the join keys; in SPJ views this
       cannot happen unless the alias is disconnected, which [make]
       rejects elsewhere. *)
    unsupported "alias %s contributes no attribute to view %s" tr.alias
      (Query.name q);
  let select_t =
    List.map
      (fun a ->
        {
          Query.expr = Attr.Qualified.make ~rel:tr.alias a;
          as_name = pname tr.alias a;
        })
      needed
  in
  let select_p =
    List.map
      (fun n ->
        { Query.expr = Attr.Qualified.make ~rel:partial_alias n; as_name = n })
      partial_names
  in
  let joins =
    List.map
      (fun (my_attr, b_alias, b_attr) ->
        Predicate.atom
          (Predicate.Ref (Attr.Qualified.make ~rel:tr.alias my_attr))
          Predicate.Eq
          (Predicate.Ref
             (Attr.Qualified.make ~rel:partial_alias (pname b_alias b_attr))))
      (join_pairs_with q owner tr.alias bound)
  in
  Query.make
    ~name:(Fmt.str "maint:%s:%s" (Query.name q) tr.alias)
    ~select:(select_t @ select_p)
    ~from:
      [
        { tr with alias = tr.alias };
        { Query.source = tr.source; rel = partial_alias; alias = partial_alias };
      ]
    ~where:(local_atoms q owner tr.alias @ joins)

let probe_query q owner (tr : Query.table_ref) ~partial_schema ~bound =
  probe_query_names q owner tr
    ~needed:(needed_attrs q owner tr.alias)
    ~partial_names:(Schema.names partial_schema) ~bound

(** [seed_partial tr ~locals ~needed delta] turns the delta of the
    maintained update into the first partial result: the alias's local
    filters [locals] applied, its [needed] attributes projected, names
    prefixed. *)
let seed_partial (tr : Query.table_ref) ~locals ~needed (delta : Relation.t) =
  let schema = Relation.schema delta in
  let filtered =
    if locals = [] then delta
    else
      let resolve (r : Attr.Qualified.t) =
        Schema.index_of schema (Attr.Qualified.attr r)
      in
      Relation.select (fun t -> Predicate.eval resolve locals t) delta
  in
  let projected = Relation.project filtered needed in
  List.fold_left
    (fun r a ->
      Relation.rename_attr r ~old_name:a ~new_name:(pname tr.alias a))
    projected needed

(** [initial_partial q owner tr delta] is {!seed_partial} with the
    filters and attributes the view query gives [tr]. *)
let initial_partial (q : Query.t) owner (tr : Query.table_ref)
    (delta : Relation.t) : Relation.t =
  seed_partial tr
    ~locals:(local_atoms q owner tr.alias)
    ~needed:(needed_attrs q owner tr.alias)
    delta

(** [fetch_query q owner tr] builds the adaptation probe for table [tr]:
    the relation's needed attributes under their own names, restricted by
    the view's local filters on [tr].  Unlike {!probe_query} no partial
    result is shipped — adaptation re-reads whole (filtered) relations. *)
let fetch_query (q : Query.t) owner (tr : Query.table_ref) : Query.t =
  let needed = needed_attrs q owner tr.alias in
  Query.make
    ~name:(Fmt.str "adapt:%s:%s" (Query.name q) tr.alias)
    ~select:
      (List.map
         (fun a ->
           { Query.expr = Attr.Qualified.make ~rel:tr.alias a; as_name = a })
         needed)
    ~from:[ tr ]
    ~where:(local_atoms q owner tr.alias)

(** [view_output_schema q schemas] is the schema of the view's extent as
    implied by the select list and the believed alias schemas. *)
let view_output_schema (q : Query.t) (schemas : (string * Schema.t) list) :
    Schema.t =
  let owner = owner_of_schemas schemas in
  Schema.of_list
    (List.map
       (fun (it : Query.select_item) ->
         let alias = alias_of_ref owner it.expr in
         let s =
           match List.assoc_opt alias schemas with
           | Some s -> s
           | None ->
               raise (Eval.Error (Fmt.str "no believed schema for alias %s" alias))
         in
         let a = Schema.find s (Attr.Qualified.attr it.expr) in
         Attr.make it.as_name (Attr.ty a))
       (Query.select q))

(** Sweep order: aliases other than the pivot, pivot-adjacent first — walk
    left to the start of the FROM list, then right to its end (the SWEEP
    processing order, which keeps chain joins connected). *)
let sweep_order (q : Query.t) pivot_alias =
  let refs = Query.from q in
  let idx =
    match
      List.mapi (fun i tr -> (i, tr)) refs
      |> List.find_opt (fun (_, (tr : Query.table_ref)) ->
             String.equal tr.alias pivot_alias)
    with
    | Some (i, _) -> i
    | None -> unsupported "alias %s not in view %s" pivot_alias (Query.name q)
  in
  let arr = Array.of_list refs in
  let left = List.init idx (fun k -> arr.(idx - 1 - k)) in
  let right =
    List.init (Array.length arr - idx - 1) (fun k -> arr.(idx + 1 + k))
  in
  left @ right

(* ------------------------------------------------------------------ *)
(* Sweep plans                                                        *)
(* ------------------------------------------------------------------ *)

(* Everything above that a sweep derives from the definition alone is a
   function of (view query, believed schemas, pivot alias) — the partial
   result's column names too: the seed carries the pivot's prefixed
   needed attributes, and each probe prepends the probed alias's.  So one
   plan per definition version and pivot serves every update. *)

type step = { probed : Query.table_ref; needed : string list; probe : Query.t }

type plan = {
  query : Query.t;
  schemas : (string * Schema.t) list;
  pivot : Query.table_ref;
  locals : Predicate.atom list;
  needed : string list;
  steps : step list;
  residual : (Tuple.t -> bool) option;
  items : (int * string) list;
}

let build_plan (query : Query.t) schemas (pivot : Query.table_ref) : plan =
  let owner = owner_of_schemas schemas in
  let locals = local_atoms query owner pivot.alias in
  let needed = needed_attrs query owner pivot.alias in
  let prefixed alias needed = List.map (pname alias) needed in
  (* Walk the sweep order, tracking the partial's column names. *)
  let steps, names, _ =
    List.fold_left
      (fun (steps, names, bound) (tr : Query.table_ref) ->
        let needed = needed_attrs query owner tr.alias in
        let probe =
          probe_query_names query owner tr ~needed ~partial_names:names ~bound
        in
        ( { probed = tr; needed; probe } :: steps,
          prefixed tr.alias needed @ names,
          tr.alias :: bound ))
      ([], prefixed pivot.alias needed, [ pivot.alias ])
      (sweep_order query pivot.alias)
  in
  let resolve (r : Attr.Qualified.t) =
    let n = pname (alias_of_ref owner r) (Attr.Qualified.attr r) in
    let rec go i = function
      | [] -> raise (Schema.No_such_attribute n)
      | x :: rest -> if String.equal x n then i else go (i + 1) rest
    in
    go 0 names
  in
  {
    query;
    schemas;
    pivot;
    locals;
    needed;
    steps = List.rev steps;
    residual =
      (match residual_atoms query owner with
      | [] -> None
      | atoms -> Some (Predicate.compile resolve atoms));
    items =
      List.map
        (fun (it : Query.select_item) -> (resolve it.expr, it.as_name))
        (Query.select query);
  }

type Dyno_view.View_def.memo += Sweep_plan of plan

let plan (vd : Dyno_view.View_def.t) (pivot : Query.table_ref) : plan =
  match
    List.find_map
      (function
        | Sweep_plan p when String.equal p.pivot.alias pivot.alias -> Some p
        | _ -> None)
      (Dyno_view.View_def.memos vd)
  with
  | Some p -> p
  | None ->
      let p =
        build_plan (Dyno_view.View_def.peek vd) (Dyno_view.View_def.schemas vd)
          pivot
      in
      Dyno_view.View_def.add_memo vd (Sweep_plan p);
      p

let seed (p : plan) delta =
  seed_partial p.pivot ~locals:p.locals ~needed:p.needed delta

let project_final (p : plan) (partial : Relation.t) : Relation.t =
  let pschema = Relation.schema partial in
  let filtered =
    match p.residual with
    | None -> partial
    | Some keep -> Relation.select keep partial
  in
  let out_schema =
    Schema.of_list
      (List.map
         (fun (pos, name) ->
           Attr.make name (Attr.ty (Schema.attr_at pschema pos)))
         p.items)
  in
  let idxs = Array.of_list (List.map fst p.items) in
  Relation.map_tuples out_schema (fun t -> Tuple.project_idx t idxs) filtered
