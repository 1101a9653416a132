(** Multi-chain convergence harness for the hit-and-run sampler.

    Runs [m] independent hit-and-run chains on the (rounded) body,
    thinned at the paper-prescribed walk length
    ({!Scdb_sampling.Hit_and_run.default_steps}), and summarizes
    per-chain effective sample sizes and cross-chain split-R̂ per
    coordinate into a {!Scdb_diag.Diag.verdict}.

    Diagnostics are computed in the rounded body's coordinates: the
    rounding transform is affine, so mixing there is mixing of the
    mapped samples too. *)

type chain = {
  ess : float array;  (** per-coordinate effective sample size *)
  mean : float array;  (** per-coordinate mean of retained draws *)
  kept : int;  (** retained (thinned) draws *)
  acceptance_rate : float;
  max_stall : int;  (** longest consecutive-rejection run *)
}

type t = {
  dim : int;
  chains : chain array;
  thin : int;  (** walk steps between retained draws *)
  samples_per_chain : int;
  rhat : float array;  (** split Gelman–Rubin R̂ per coordinate *)
  verdict : Scdb_diag.Diag.verdict;
}

val default_chains : int
(** 4 *)

val default_samples_per_chain : int
(** 64 *)

val run :
  ?chains:int -> ?samples_per_chain:int -> Rng.t -> Polytope.t -> t option
(** Round the body, run the chains, diagnose.  [None] when the body is
    empty or unbounded (rounding fails).  Each chain draws its seed
    from [rng], so the whole run is deterministic given the seed. *)

val to_json : t -> Scdb_json.Json.t
(** Self-contained JSON object; a non-finite R-hat or ESS (a chain
    with no within-chain variance) prints as [null]. *)
