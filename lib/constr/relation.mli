(** Generalized relations: finitely representable subsets of [R^d].

    A relation is a dimension together with a finite union of
    generalized tuples (the DNF of its defining quantifier-free
    formula).  This is the object the paper's generators and estimators
    operate on. *)

type t = private { dim : int; tuples : Dnf.tuple list }

val make : dim:int -> Dnf.tuple list -> t
(** @raise Invalid_argument if an atom mentions a variable [>= dim]. *)

val of_formula : dim:int -> Formula.t -> t
(** DNF conversion of a quantifier-free formula.
    @raise Invalid_argument on quantified input. *)

val to_formula : t -> Formula.t
val dim : t -> int
val tuples : t -> Dnf.tuple list

val size : t -> int
(** Description size: total number of atoms. *)

val mem : t -> Rational.t array -> bool
val mem_float : ?slack:float -> t -> Vec.t -> bool
(** Float membership of the {!Term.eval_float} images, an atom holding
    when its value is at most [slack] (below it for [<], within it in
    absolute value for [=]); [slack] defaults to [0].  Converts every
    coefficient on every call: the per-call form, and the reference
    {!lower} is tested against. *)

(** {1 Lowered membership}

    The membership test of a relation whose oracle is built once and
    called many times (a generator's first-index test, a guard): every
    atom's {!Term.float_row} is taken once, into flat arrays. *)

type lowered

val lower : ?slack:float -> t -> lowered
(** Lower every atom of every tuple; [slack] as in {!mem_float}. *)

val mem_lowered : lowered -> Vec.t -> bool
(** [mem_float ?slack r x], bit for bit, for [lower ?slack r]: the same
    rows accumulated in the same order (a term whose every part is in
    float range keeps its bits, and {!Term.eval_float} itself falls back
    to the scaled {!Term.float_row} otherwise).  Allocates nothing. *)

val mem_fn : ?slack:float -> t -> Vec.t -> bool
(** [mem_fn ?slack r] is {!mem_lowered} on [lower ?slack r], lowered on
    the first call (a generator whose membership nobody asks for pays
    nothing). *)

val union : t -> t -> t
(** @raise Invalid_argument on dimension mismatch. *)

val inter : t -> t -> t
(** Tuple-wise product: DNF of the conjunction. *)

val complement_tuple : Dnf.tuple -> t -> t option
(** [complement_tuple t r]: the relation [t ∧ ¬r] in DNF, or [None] if
    empty syntactically. *)

val diff : t -> t -> t
(** [diff r s = r ∧ ¬s], distributed back to DNF. *)

val is_syntactically_empty : t -> bool

(** {1 Common shapes} (axis-aligned; exact rational data) *)

val box : Rational.t array -> Rational.t array -> t
(** [box lo hi] in dimension [Array.length lo]. *)

val unit_cube : int -> t
val cube : int -> Rational.t -> t
(** [cube d r] is [[-r, r]^d]. *)

val standard_simplex : int -> t
(** [{x >= 0, Σx <= 1}]. *)

val cross_polytope : int -> Rational.t -> t
(** [{Σ|xᵢ| <= r}] as the intersection of its [2^d] facets — one
    generalized tuple with [2^d] atoms. *)

val halfspace : dim:int -> Term.t -> t
(** [{x | term <= 0}]. *)


val fingerprint : t -> string
(** Canonical 64-bit fingerprint of the relation, as 16 lowercase hex
    characters.  Computed over the DNF'd exact-rational atoms:
    every atom is rescaled so its leading coefficient has absolute
    value 1 (sign-normalized for equalities), atoms are sorted and
    deduplicated within each tuple, tuples are sorted and deduplicated
    across the relation, and the result is FNV-1a-hashed together with
    the dimension.  Insensitive to atom/tuple order, duplicate
    atoms/tuples, positive rescaling of atoms and the internal bigint
    representation of coefficients; distinct syntax trees of the same
    set may still fingerprint differently (this is canonical hashing,
    not semantic equivalence).  Keys audit ledger entries and, later,
    prepared-relation caches. *)

val to_text : t -> string
(** The relation as parseable FO+LIN text (variables named [x0 …]);
    [Parser.parse_relation ~vars:["x0";…]] inverts it. *)

val pp : Format.formatter -> t -> unit
