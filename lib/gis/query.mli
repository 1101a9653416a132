(** FO+LIN queries over a database schema.

    The query language of the paper: atoms are either relation symbols
    applied to variables or linear constraints, closed under boolean
    connectives and quantification.  Variables are integers; the free
    variables of the query are [0 .. free_dim-1]. *)

type t =
  | Rel of string * int list (* R(x_{i₁}, …, x_{iₖ}) *)
  | Constr of Atom.t
  | And of t list
  | Or of t list
  | Not of t
  | Exists of int list * t

val rel : string -> int list -> t
val constr : Atom.t -> t
val conj : t list -> t
val disj : t list -> t
val neg : t -> t
val exists : int list -> t -> t

val relation_names : t -> string list
(** Distinct, in first-occurrence order. *)

val free_vars : t -> int list
val max_var : t -> int
val is_positive_existential : t -> bool
(** No negation, no universal quantification — the fragment of
    Theorem 4.4's reconstruction. *)

val well_formed : Schema.t -> t -> (unit, string) result
(** Arity check of every relation atom against the schema. *)

val parse : schema:Schema.t -> vars:string list -> string -> t
(** Text syntax: the one FO+LIN grammar of {!Scdb_constr.Parser} with
    its relation-atom alternative [Name(x, y, …)] (arguments are
    variable names) turned on.  Identifiers starting with an uppercase letter
    are reserved for relation names; a name repeated in [vars] is
    refused.  [true] is [conj []], [false] is [disj []], [a -> b] is
    [disj [neg a; b]] and [forall vs. q] is [neg (exists vs (neg q))],
    which {!Eval.compile} refuses as a negated existential.
    @raise Scdb_constr.Parser.Parse_error on syntax or arity errors and
    unknown relation names.
    @raise Scdb_constr.Parser.Lex_error on bad characters. *)

val pp : Format.formatter -> t -> unit
