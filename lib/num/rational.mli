(** Exact rational numbers over {!Bigint}.

    Values are kept in canonical form: the denominator is positive and
    the fraction is reduced ([gcd num den = 1]; zero is [0/1]).  Used by
    the exact pipeline (Fourier–Motzkin, exact simplex) where floating
    point would silently change the geometry. *)

type t = private { num : Bigint.t; den : Bigint.t }

val zero : t
val one : t
val minus_one : t
val two : t
val half : t

(** {1 Construction} *)

val make : Bigint.t -> Bigint.t -> t
(** [make num den] in canonical form. @raise Division_by_zero if [den = 0]. *)

val of_bigint : Bigint.t -> t
val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints a b = a/b]. @raise Division_by_zero if [b = 0]. *)

val of_float : float -> t
(** Exact dyadic value of a finite float.
    @raise Invalid_argument on nan or infinities. *)

val of_string : string -> t
(** Accepts ["a"], ["a/b"] and decimal literals like ["-3.25"]. *)

(** {1 Conversions} *)

val to_float : t -> float
(** Quotient of the two parts as floats.  When a part lies beyond the
    float range, both are first scaled by the same power of two, so the
    result overflows or underflows only when the quotient itself lies
    beyond the range, and is never a nan. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {1 Predicates and comparisons} *)

val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool
val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val hash : t -> int

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val inv : t -> t
(** @raise Division_by_zero on zero. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero if the divisor is zero. *)

val mul_int : t -> int -> t

val floor : t -> Bigint.t
val ceil : t -> Bigint.t

val pow : t -> int -> t
(** Integer power; negative exponents invert. @raise Division_by_zero
    when raising zero to a negative power. *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
