(** Recursive-descent parser for FO+LIN formulas: the one parser of
    the text syntax, for formulas ({!parse}) and, through a [relation]
    hook, for queries over relation symbols ([Scdb_gis.Query.parse]).

    Grammar (lowest to highest precedence):
    {v
    formula    ::= 'exists' ident+ '.' formula
                 | 'forall' ident+ '.' formula
                 | implication
    implication::= disjunction ('->' formula)?
    disjunction::= conjunction ('\/' conjunction)*
    conjunction::= unary ('/\' unary)*
    unary      ::= '~' unary | '(' formula ')' | 'true' | 'false'
                 | Name '(' ident (',' ident)* ')'   (only with a relation hook)
                 | atom
    atom       ::= expr (relop expr)+            (chains allowed: 0 <= x <= 1)
    relop      ::= '<=' | '<' | '>=' | '>' | '=' | '<>'
    expr       ::= ['-'] term (('+'|'-') term)*
    term       ::= factor (('*'|'/') factor)*    (multiplication must stay linear)
    factor     ::= number | ident | '(' expr ')' | '-' factor
    v}

    Free variables are the names passed to {!parse}, bound to indices
    [0 .. n-1] in order; a name passed twice is refused.  Quantified
    variables get fresh indices and may shadow free names.  With a
    relation hook, identifiers starting with an uppercase letter are
    reserved for relation names: they are neither variables nor
    quantifiable. *)

exception Parse_error of string

exception Lex_error of string * int
(** {!Lexer.Lex_error}, re-exported: message and character offset. *)

type 'f connectives = {
  atom : Atom.t -> 'f;
  conj : 'f list -> 'f;
  disj : 'f list -> 'f;
  neg : 'f -> 'f;
  exists : int list -> 'f -> 'f;
  forall : int list -> 'f -> 'f;
  relation : (string -> int list -> 'f) option;
}
(** What the parser builds for each construct.  [true] is [conj []],
    [false] is [disj []], [a -> b] is [disj [neg a; b]] and [a <> b] is
    [neg (atom (a = b))].  [relation] builds [Name(x, …)] from the
    arguments' variable indices and may raise {!Parse_error}; [None]
    leaves relation atoms out of the grammar. *)

val formula : Formula.t connectives
(** {!Formula}'s smart constructors, without relation atoms. *)

val parse_with : 'f connectives -> vars:string list -> string -> 'f
(** @raise Parse_error on syntax errors, unknown or repeated variables,
    or non-linear products. @raise Lex_error on bad characters. *)

val parse : vars:string list -> string -> Formula.t
(** [parse_with formula]. *)

val parse_relation : vars:string list -> string -> Relation.t
(** Parse then convert to DNF.  The input must be quantifier-free.
    The relation's dimension is [List.length vars]. *)
