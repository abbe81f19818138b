(** Maintenance-query construction: the decomposition of the view query
    into per-source probes (the paper's Query (2)), partial-result name
    plumbing, sweep ordering and output projection. *)

open Dyno_relational

exception Unsupported of string

val pname : string -> string -> string
(** Name of view attribute [alias.attr] inside a partial result
    ([alias__attr]). *)

val partial_alias : string
(** Alias under which the shipped partial result is bound at a source. *)

val owner_of_schemas :
  (string * Schema.t) list -> Attr.Qualified.t -> string
(** Resolve unqualified references against believed alias schemas.
    @raise Eval.Error on unknown/ambiguous references. *)

val alias_of_ref :
  (Attr.Qualified.t -> string) -> Attr.Qualified.t -> string

val needed_attrs : Query.t -> (Attr.Qualified.t -> string) -> string -> string list
(** Deduplicated attributes of an alias used anywhere in the view query. *)

val local_atoms :
  Query.t -> (Attr.Qualified.t -> string) -> string -> Predicate.atom list
(** View predicate atoms local to one alias, with references qualified. *)

val join_pairs_with :
  Query.t ->
  (Attr.Qualified.t -> string) ->
  string ->
  string list ->
  (string * string * string) list
(** Equality atoms between an alias and any already-bound alias, as
    (attr_of_alias, bound_alias, attr_of_bound) triples. *)

val residual_atoms :
  Query.t -> (Attr.Qualified.t -> string) -> Predicate.atom list
(** Cross-alias atoms that are not hash-joinable equalities (applied once
    all aliases are joined). *)

val probe_query :
  Query.t ->
  (Attr.Qualified.t -> string) ->
  Query.table_ref ->
  partial_schema:Schema.t ->
  bound:string list ->
  Query.t
(** The maintenance query probing one table with the current partial
    result shipped along. *)

val fetch_query :
  Query.t -> (Attr.Qualified.t -> string) -> Query.table_ref -> Query.t
(** The adaptation probe: needed attributes under their own names,
    restricted by the view's local filters (no partial shipped). *)

val initial_partial :
  Query.t ->
  (Attr.Qualified.t -> string) ->
  Query.table_ref ->
  Relation.t ->
  Relation.t
(** Turn the maintained update's delta into the first partial result:
    local filters applied, needed attributes projected, names prefixed. *)

val view_output_schema : Query.t -> (string * Schema.t) list -> Schema.t
(** The schema of the view's extent implied by the select list and the
    believed alias schemas. *)

val sweep_order : Query.t -> string -> Query.table_ref list
(** Aliases other than the pivot, pivot-adjacent first (walk left to the
    start of the FROM list, then right) — the SWEEP processing order that
    keeps chain joins connected. *)

(** {1 Sweep plans}

    Everything a sweep derives from the view definition alone, built once
    per definition version and pivot alias and cached on the
    {!Dyno_view.View_def.t} (every version bump drops it).  A plan is
    immutable, so a worker domain may read one. *)

type step = {
  probed : Query.table_ref;
  needed : string list;  (** the alias's {!needed_attrs} *)
  probe : Query.t;  (** its {!probe_query} *)
}

type plan = private {
  query : Query.t;  (** the definition the plan was built from *)
  schemas : (string * Schema.t) list;  (** its believed alias schemas *)
  pivot : Query.table_ref;
  locals : Predicate.atom list;  (** the pivot's {!local_atoms} *)
  needed : string list;  (** the pivot's {!needed_attrs} *)
  steps : step list;  (** in {!sweep_order} *)
  residual : (Tuple.t -> bool) option;
      (** {!residual_atoms}, compiled against the final partial's columns *)
  items : (int * string) list;
      (** per select item: column of the final partial, output name *)
}

val plan : Dyno_view.View_def.t -> Query.table_ref -> plan
(** The cached plan of the definition's current version for this pivot,
    built on first use.  Coordinator-only; does not count an r(VD).
    @raise Unsupported when an alias contributes no attribute.
    @raise Eval.Error on unknown/ambiguous references. *)

val seed : plan -> Relation.t -> Relation.t
(** {!initial_partial} for the plan's pivot. *)

val project_final : plan -> Relation.t -> Relation.t
(** Project a completed partial result onto the view's select list
    (applying the residual atoms), restoring output names and types. *)
