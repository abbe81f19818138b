(** The view definition: the critical shared resource of the paper.
    Concurrent dependencies (Definition 3) are read–write conflicts on
    this object: every maintenance process reads it (r(VD)) to construct
    its queries, and the maintenance of a schema change rewrites it
    (w(VD)). *)

open Dyno_relational

type t

val create : schemas:(string * Schema.t) list -> Query.t -> t
(** [schemas] is the view manager's {e believed} schema of each FROM
    alias — maintenance queries are built from this possibly-stale
    knowledge, which is exactly why they can break. *)

val read : t -> Query.t * int
(** The r(VD) step: the current definition and the version it was read
    at. *)

val peek : t -> Query.t
(** Read without counting a maintenance read. *)

val schemas : t -> (string * Schema.t) list
val schema_of_alias : t -> string -> Schema.t option
val version : t -> int
val is_valid : t -> bool
val reads : t -> int
val writes : t -> int

(** {1 Derived values}

    Values computed from one definition version alone — the sweep plans
    of {!Dyno_vm.Maint_query} — cached on the definition.  Every version
    bump ({!write}, {!restore}, {!invalidate}) drops them. *)

type memo = ..
(** Each client adds its own constructor. *)

val memos : t -> memo list
(** The values cached for the current version, newest first. *)

val add_memo : t -> memo -> unit
(** Cache a value for the current version.  Coordinator-only. *)

val write : t -> schemas:(string * Schema.t) list -> Query.t -> unit
(** The w(VD) step: install a rewritten definition and the believed
    schemas it was derived for (in-memory; the physical rewrite happens
    together with w(MV) — the paper's footnote 1). *)

type saved

val save : t -> saved
val restore : t -> saved -> unit
(** Roll back to a saved state — an aborted maintenance process must leave
    no trace of its w(VD). *)

val invalidate : t -> unit
(** Mark the view undefined (no rewriting exists). *)

val name : t -> string
val pp : Format.formatter -> t -> unit
