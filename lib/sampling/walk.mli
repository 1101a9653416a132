(** The Dyer–Frieze–Kannan lattice walk.

    Lazy simple random walk on the graph induced by a γ-grid on a
    convex body, driven by a membership oracle only.  Transition
    probabilities are symmetric ([1/(4d)] to each of the [2d] lattice
    neighbours that stay inside, laziness [1/2]), so the stationary
    distribution is exactly uniform on the vertex set; rapid mixing on
    well-rounded bodies is the DFK theorem this repository measures in
    experiment E2. *)

type oracle = Vec.t -> bool

val default_steps : dim:int -> eps:float -> int
(** Practical mixing schedule [O(d³ ln(1/ε))] (the d¹⁹ of the original
    analysis is a worst-case bound, not a recipe). *)

val walk :
  ?monitor:Scdb_diag.Diag.Monitor.t ->
  Rng.t -> grid:Grid.t -> mem:oracle -> start:int array -> steps:int -> int array
(** Final lattice vertex after [steps] transitions.  The start vertex
    must satisfy the oracle. @raise Invalid_argument otherwise.  When a
    [monitor] is attached, every step records the chain position and
    every non-lazy proposal an accept/reject event. *)

val sample :
  ?monitor:Scdb_diag.Diag.Monitor.t ->
  Rng.t -> grid:Grid.t -> mem:oracle -> start:Vec.t -> steps:int -> Vec.t
(** [walk] wrapped to float points: rounds [start] to the grid and
    returns the final vertex as a point. *)

val sample_polytope_batch :
  ?monitors:Scdb_diag.Diag.Monitor.t array ->
  Rng.t array ->
  grid:Grid.t ->
  Polytope.t ->
  starts:Vec.t array ->
  steps:int ->
  Vec.t array
(** K lattice chains with the polytope membership oracle, run on the
    incremental cached-product kernel ({!Polytope.Kernel.Batch}): a
    lattice move tests and commits in [O(m)] column updates instead of
    the [O(m·d)] oracle evaluation, with no per-step allocation.  Chain
    [c] consumes only [rngs.(c)] with the same draw order as [sample]
    with the equivalent oracle, so each chain is bit-identical to a
    K = 1 run from the same rng and start; telemetry/progress
    accounting is per invocation.
    @raise Invalid_argument on empty/mismatched arrays or a start
    outside the body. *)

val trajectory :
  Rng.t -> grid:Grid.t -> mem:oracle -> start:int array -> steps:int -> int array list
(** All visited vertices (for mixing diagnostics), most recent first. *)
