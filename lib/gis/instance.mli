(** Finitely representable instances: one generalized relation per
    schema name. *)

type t

val create : Schema.t -> t

val schema : t -> Schema.t

val set : t -> string -> Relation.t -> t
(** @raise Invalid_argument if the name is not in the schema or the
    relation's dimension differs from the declared arity. *)

val get : t -> string -> Relation.t option
val get_exn : t -> string -> Relation.t

val names : t -> string list
(** Names that have been populated. *)

