(** Fixed-dimension observability (Theorem 3.1, Lemmas 3.1–3.2).

    When the dimension is a constant, {e every} generalized relation —
    convex or not, connected or not — is observable by brute force:
    decompose the bounding box into γ-cubes, enumerate the cubes inside
    the relation, and both the count (volume) and a uniform cube choice
    (generator) follow.  The [(R/γ)^d] cost is polynomial for fixed [d]
    and the subject of experiment E8's crossover against the
    random-walk pipeline. *)

val observable : ?max_cells:int -> Relation.t -> Observable.t option
(** [None] when the relation is (syntactically or geometrically) empty
    or unbounded.  Decompositions are cached per γ.  The generator uses
    γ from its {!Params.t}; the volume estimator uses γ = ε (their
    roles coincide here: resolution is the only error source).
    [max_cells] (default [2_000_000]) bounds each decomposition: a γ
    finer than the budget allows is coarsened to fit it, so accuracy,
    not memory, gives way in growing dimension — the blowup that is the
    point of Section 3's fixed-dimension hypothesis. *)
