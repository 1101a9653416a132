(** Observable relations: the paper's central notion.

    A relation is {e observable} when it carries both a
    (γ,ε,δ)-uniform generator and an (ε,δ)-volume estimator.  This
    module defines the runtime object the combinators ({!Union},
    {!Inter}, {!Diff}, {!Project}) compose, mirroring how the paper
    builds generators for FO+LIN operators out of the
    Dyer–Frieze–Kannan base case. *)

exception Estimation_failed of string
(** Raised by volume estimators when the underlying body turns out
    empty/unbounded or the sampler breaks down. *)

type t = {
  dim : int;
  relation : Relation.t option;
      (* symbolic description when one is materialized; projections
         deliberately avoid computing it (that is their whole point) *)
  mem : Vec.t -> bool; (* the membership oracle of the paper (linear in description size) *)
  sample : Rng.t -> Params.t -> Vec.t option; (* the (γ,ε,δ)-generator; [None] = declared failure *)
  volume : Rng.t -> gamma:float -> eps:float -> delta:float -> float;
      (* the (ε,δ)-volume estimator; [gamma] is the grid resolution any
         internal sampling must discretize on, so that volume and
         sample paths of one observable agree on the grid *)
}

val make :
  ?relation:Relation.t ->
  dim:int ->
  mem:(Vec.t -> bool) ->
  sample:(Rng.t -> Params.t -> Vec.t option) ->
  volume:(Rng.t -> gamma:float -> eps:float -> delta:float -> float) ->
  unit ->
  t

val of_relation_parts :
  relation:Relation.t ->
  mem:(Vec.t -> bool) ->
  sample:(Rng.t -> Params.t -> Vec.t option) ->
  volume:(Rng.t -> gamma:float -> eps:float -> delta:float -> float) ->
  t
(** Like {!make} with the dimension taken from the relation. *)

val dim : t -> int
val relation : t -> Relation.t option
val mem : t -> Vec.t -> bool
val sample : t -> Rng.t -> Params.t -> Vec.t option

val volume : t -> ?gamma:float -> Rng.t -> eps:float -> delta:float -> float
(** [gamma] defaults to {!Params.default}'s γ (0.1).  Combinators that
    sample internally (union, intersection, difference, projection)
    pass it through to their children's generators, so the volume path
    and the sample path of the same observable discretize on the same
    grid. *)

val sample_exn : t -> Rng.t -> Params.t -> Vec.t
(** Retry the generator up to [20·ln(1/δ)] times.
    @raise Estimation_failed when every attempt fails. *)

val sample_many : t -> Rng.t -> Params.t -> n:int -> Vec.t list
(** [n] successful draws (individual failures are retried as in
    {!sample_exn}). *)

val tag : int -> t -> t
(** Run [sample] and [volume] inside [Progress.with_node id], so the work
    they spend accrues to plan node [id].  Draws no rng. *)

val with_cached_volume : t -> t
(** Memoize the volume estimator per (γ,ε,δ) triple.  The combinators call
    child estimators on every trial (as written in the paper's
    Algorithm 1); caching makes that affordable without changing the
    estimate seen by any single run. *)

val combine_relations :
  (Relation.t -> Relation.t -> Relation.t) -> t -> t -> Relation.t option
(** Lift a symbolic operation to optional relations. *)
