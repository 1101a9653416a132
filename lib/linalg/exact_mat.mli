(** Exact rational determinants (Gaussian elimination over
    {!Scdb_num.Rational}).

    A test reference: no product code calls it.  The linalg tests
    check the float {!Mat.det} against it on random integer matrices. *)

open Scdb_num

type t = Rational.t array array

val det : t -> Rational.t
(** @raise Invalid_argument if not square. *)
