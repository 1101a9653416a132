(** Naive rejection sampling from a bounding box.

    The baseline of experiment E3: exact uniformity, but the acceptance
    probability is the volume ratio body/box, which collapses like
    [1/d^{Θ(d)}] for round bodies — the paper's motivating example for
    why the random-walk machinery is necessary at all. *)

type stats = { attempts : int; accepted : int }

val sample :
  Rng.t -> lo:Vec.t -> hi:Vec.t -> mem:(Vec.t -> bool) -> max_attempts:int -> Vec.t option
(** One accepted point, or [None] if the budget is exhausted; the
    attempts it spent go to the [rejection.attempts] counter and the
    [rejection.sample] span. *)

val sample_many :
  Rng.t -> lo:Vec.t -> hi:Vec.t -> mem:(Vec.t -> bool) -> count:int -> max_attempts:int ->
  Vec.t list * stats
(** Up to [count] accepted points within a total attempt budget. *)

val acceptance_rate : stats -> float
