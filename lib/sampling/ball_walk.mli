(** Metropolis ball walk on a convex body.

    The third classical sampler (next to the lattice walk and
    hit-and-run): propose a uniform point in the δ-ball around the
    current position and move iff it stays inside.  The proposal is
    symmetric, so the stationary distribution is uniform.  Step size
    trades acceptance rate against mixing; the default follows the
    usual δ = Θ(r/√d) rule for a body with inscribed radius r. *)

type stats = { steps : int; accepted : int }

val default_radius : dim:int -> r_inscribed:float -> float

val walk :
  ?monitor:Scdb_diag.Diag.Monitor.t ->
  Rng.t ->
  mem:(Vec.t -> bool) ->
  start:Vec.t ->
  steps:int ->
  radius:float ->
  Vec.t * stats
(** Final position and acceptance statistics.  The start must satisfy
    [mem]. @raise Invalid_argument otherwise.  When a [monitor] is
    attached, every step records the chain position and an
    accept/reject event. *)

val sample_polytope :
  ?monitor:Scdb_diag.Diag.Monitor.t ->
  Rng.t -> Polytope.t -> start:Vec.t -> steps:int -> ?radius:float -> unit -> Vec.t
(** Ball walk with the polytope membership oracle; the default radius
    uses the Chebyshev radius of the body. *)

val sample_polytope_batch :
  ?monitors:Scdb_diag.Diag.Monitor.t array ->
  Rng.t array ->
  Polytope.t ->
  starts:Vec.t array ->
  steps:int ->
  ?radius:float ->
  unit ->
  Vec.t array
(** K Metropolis ball chains on the batched kernel
    ({!Polytope.Kernel.Batch}): one shared pass evaluates all K
    proposals per step against the cached row products instead of K
    from-scratch membership tests.  Chain [c] consumes only [rngs.(c)],
    on {!walk}'s per-chain ball-point stream.  Accounting is per
    invocation.
    @raise Invalid_argument on empty/mismatched arrays or a degenerate
    body with no explicit [radius]. *)
