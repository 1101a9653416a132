(** The (γ, ε, δ) parameter triple of Definition 2.2.

    [gamma] controls the grid resolution (how well [|V|·p^d]
    approximates the volume), [eps] the distance of the output
    distribution from uniform, and [delta] the allowed failure
    probability. *)

type t = private { gamma : float; eps : float; delta : float }

val make : ?gamma:float -> ?eps:float -> ?delta:float -> unit -> t
(** Defaults [(0.1, 0.1, 0.1)].
    @raise Invalid_argument unless all lie in (0, 1). *)

val default : t

val gamma : t -> float
val eps : t -> float
val delta : t -> float

val third_eps : t -> t
(** [ε := ε/3] — the sub-call parameter of Algorithms 1 and 2, so three
    compounding approximations stay within [(1+ε)]. *)

val pp : Format.formatter -> t -> unit
