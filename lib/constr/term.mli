(** Linear terms [Σ cᵢ·xᵢ + c] over the structure R_lin = ⟨R,+,−,<,0,1⟩.

    Variables are integers; coefficients are exact rationals.  Terms are
    kept sparse and normalized (no explicit zero coefficients), so
    structural equality coincides with semantic equality. *)

type t

val zero : t
val const : Rational.t -> t
val of_int : int -> t
val var : int -> t
(** The term [x_i] with coefficient 1. *)

val monomial : Rational.t -> int -> t
(** [monomial c i] is [c·x_i]. *)

val make : (int * Rational.t) list -> Rational.t -> t
(** [make coeffs const]; repeated variables are summed. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Rational.t -> t -> t

val coeff : t -> int -> Rational.t
val constant : t -> Rational.t
val coeffs : t -> (int * Rational.t) list
(** Sorted by variable index; zero coefficients omitted. *)

val vars : t -> int list
(** Variables with non-zero coefficient, ascending. *)

val max_var : t -> int
(** Largest variable index, or [-1] for constant terms. *)

val is_const : t -> bool

val eval : t -> Rational.t array -> Rational.t
(** Value at an exact point; the array must cover all variables. *)

val float_row : t -> (int * float) list * float
(** The float image of the term: its non-zero coefficients in
    ascending variable order, and its constant.  The one exact→float
    lowering ({!eval_float}, {!to_float_row} and {!Relation.lower} all
    use it).  When a coefficient or the constant
    lies beyond the float range, the whole term is first scaled exactly
    by a power of two that brings its largest part near 1 — which keeps
    the meaning of [t ≤ 0], [t < 0] and [t = 0]; a term in range keeps
    its bits. *)

val eval_float : t -> Vec.t -> float
(** Value at a float point of the {!float_row} image: the constant
    first, then coefficient·coordinate in ascending variable order. *)

val subst : t -> int -> t -> t
(** [subst t i u] replaces [x_i] by the term [u]. *)

val rename : t -> (int -> int) -> t
(** Apply a variable renaming.  Non-injective renamings merge
    coefficients: [x + y] under [x,y ↦ z] becomes [2z]. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val to_float_row : int -> t -> Vec.t * float
(** {!float_row} as a dense row: [(w, c)] with [t(x) = w·x + c] for
    [x] of dimension [d].  Variables [>= d] must not occur. *)

val pp : Format.formatter -> t -> unit
val pp_named : (int -> string) -> Format.formatter -> t -> unit
