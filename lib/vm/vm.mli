(** The compiled-engine entry points, kept as a thin facade over the
    interpreter: [compile] binds a finalised plan (rewritten by
    {!Rewrite.optimize} under [optimize:true]) to its prepared pieces
    through {!Rewrite.observables}, and [sample_many] draws from the
    plan's root at the plan's own (γ, ε, δ).  The stream is the
    interpreter's on the same plan, draw for draw. *)

type t

val compile :
  ?optimize:bool ->
  plan:Scdb_plan.Plan.t ->
  pieces:Convex_obs.prepared array ->
  unit ->
  (t, string) result
(** Bind [plan] to its prepared convex pieces, given in preorder leaf
    order (the order {!Scdb_gis.Plan_exec} constructs them in); with
    [optimize:true], [Rewrite.optimize plan pieces] instead.  [Error]
    for a task other than [Sample] or [Report], or a piece count that
    is not the plan's leaf count. *)

val sample_many : t -> Rng.t -> n:int -> Vec.t list
(** {!Observable.sample_many} on the plan's root at the plan's
    (γ, ε, δ). *)
