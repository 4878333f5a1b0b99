(** Databases: named base relations, and atom evaluation.

    An atom [r(x, y, ...)] evaluates positionally against the base
    relation named [r]: column [i] of the base relation binds the [i]-th
    variable of the atom. Repeated variables inside an atom impose
    equality between the corresponding columns. The resulting relation's
    schema is the atom's distinct variables in first-occurrence order. *)

type t

val create : unit -> t

val add : t -> string -> Relalg.Relation.t -> unit
(** Register (or replace) a base relation. *)

val find : t -> string -> Relalg.Relation.t
(** @raise Not_found for an unregistered name. *)

val mem : t -> string -> bool
val names : t -> string list

val eval_atom : ?ctx:Relalg.Ctx.t -> t -> Cq.atom -> Relalg.Relation.t
(** Materialize one atom occurrence as a relation over its variables.
    The result is a fresh relation owned by the caller, never the stored
    one, so the caller may release its arena ({!Relalg.Arena.release})
    once done with it. With telemetry in the context, the
    materialization runs in an [op.scan] span carrying the relation
    name and base/output cardinalities.
    @raise Invalid_argument if the atom's arity does not match the base
    relation's. *)

val save_dir : t -> string -> unit
(** Persist as a directory of [<name>.tsv] files ({!Relalg.Io} format),
    creating the directory if needed. Relation names must be usable as
    file names. *)

val load_dir : string -> t
(** Load every [*.tsv] in a directory; the relation name is the file
    name without the extension.
    @raise Sys_error on an unreadable directory,
    @raise Failure on a malformed file. *)
