(** Dense float matrices with the factorizations the samplers need.

    Row-major [float array array].  LU with partial pivoting backs
    [solve]/[inv]/[det]; Cholesky backs the covariance-based rounding
    step of the Dyer–Frieze–Kannan pipeline. *)

type t = float array array

val create : int -> int -> t
val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val diag : Vec.t -> t
val dims : t -> int * int
val copy : t -> t
val of_rows : Vec.t list -> t
val rows : t -> Vec.t list
val transpose : t -> t

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val mul : t -> t -> t
val mul_vec : t -> Vec.t -> Vec.t

val lu : t -> (t * int array * int) option
(** LU decomposition with partial pivoting of a square matrix:
    [Some (lu, perm, parity)], or [None] if singular (within a small
    pivot tolerance).  [lu] stores both factors compactly. *)

val solve : t -> Vec.t -> Vec.t option
(** Solve [A x = b] for square [A]; [None] if singular. *)

val inv : t -> t option
val det : t -> float

val cholesky : t -> t option
(** Lower-triangular [L] with [L Lᵀ = A] for symmetric positive-definite
    [A]; [None] otherwise. *)

val solve_lower_triangular : t -> Vec.t -> Vec.t
(** Forward substitution with a lower-triangular matrix. *)

val solve_upper_triangular : t -> Vec.t -> Vec.t

val equal_eps : float -> t -> t -> bool

val pp : Format.formatter -> t -> unit
