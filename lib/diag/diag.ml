(* The statistics every check of the reproduction reads: streaming
   moments, order statistics, the convergence diagnostics of the
   random-walk samplers and exact binomial intervals. *)

module Welford = struct
  type t = { mutable n : int; mutable mean : float; mutable m2 : float }

  let create () = { n = 0; mean = 0.0; m2 = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    let d = x -. t.mean in
    t.mean <- t.mean +. (d /. float_of_int t.n);
    t.m2 <- t.m2 +. (d *. (x -. t.mean))

  let count t = t.n
  let mean t = t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let std t = sqrt (variance t)
end

(* ------------------------------------------------------------------ *)
(* Series statistics                                                   *)
(* ------------------------------------------------------------------ *)

let series_mean x =
  let n = Array.length x in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 x /. float_of_int n

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Diag.median: empty array";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* A variance at the level of rounding noise around the mean reads as
   "no signal": the mean of a frozen series is not exact unless its
   value is, so an absolute zero test would judge a chain stuck at 0.1
   differently from one stuck at 0.5. *)
let numerically_constant ~var ~mean = var <= 1e-20 *. (1.0 +. (mean *. mean))

(* Biased (1/n) autocovariance at lag k, the standard choice for
   ESS estimation (it damps the noisy large-lag terms). *)
let autocovariance x k =
  let n = Array.length x in
  if k >= n then 0.0
  else begin
    let m = series_mean x in
    let acc = ref 0.0 in
    for i = 0 to n - k - 1 do
      acc := !acc +. ((x.(i) -. m) *. (x.(i + k) -. m))
    done;
    !acc /. float_of_int n
  end

let autocorrelation x k =
  let c0 = autocovariance x 0 in
  if numerically_constant ~var:c0 ~mean:(series_mean x) then 0.0
  else autocovariance x k /. c0

(* Effective sample size by Geyer's initial positive sequence: sum
   ρ(2t)+ρ(2t+1) while the pair sums stay positive, τ = 1 + 2Σρ,
   ESS = n/τ clamped to [1, n].  A constant series carries one
   observation's worth of information. *)
let ess x =
  let n = Array.length x in
  if n < 4 then float_of_int n
  else begin
    let c0 = autocovariance x 0 in
    if numerically_constant ~var:c0 ~mean:(series_mean x) then 1.0
    else begin
      let rho k = autocovariance x k /. c0 in
      let acc = ref 0.0 in
      let k = ref 1 in
      let stop = ref false in
      while (not !stop) && !k + 1 < n do
        let pair = rho !k +. rho (!k + 1) in
        if pair > 0.0 then begin
          acc := !acc +. pair;
          k := !k + 2
        end
        else stop := true
      done;
      let tau = 1.0 +. (2.0 *. !acc) in
      Float.max 1.0 (Float.min (float_of_int n) (float_of_int n /. Float.max tau 1e-12))
    end
  end

(* Split-chain Gelman–Rubin: cut every chain long enough to halve
   (at least 4 draws) to the shortest such chain, halve it (discarding
   a trailing odd element), then compare between- and within-half
   variances.  R̂ → 1 as the halves agree; > 1.1 conventionally flags
   non-convergence. *)
let split_rhat chains =
  let chains = List.filter (fun c -> Array.length c >= 4) (Array.to_list chains) in
  let half = List.fold_left (fun a c -> Stdlib.min a (Array.length c / 2)) max_int chains in
  let halves = List.concat_map (fun c -> [ Array.sub c 0 half; Array.sub c half half ]) chains in
  let m = List.length halves in
  if m < 2 then 1.0
  else begin
    let n = float_of_int half in
    let means = List.map series_mean halves in
    let vars =
      List.map2
        (fun h mu ->
          let acc = Array.fold_left (fun a x -> a +. ((x -. mu) *. (x -. mu))) 0.0 h in
          acc /. (n -. 1.0))
        halves means
    in
    let w = List.fold_left ( +. ) 0.0 vars /. float_of_int m in
    let grand = List.fold_left ( +. ) 0.0 means /. float_of_int m in
    let b =
      n /. float_of_int (m - 1)
      *. List.fold_left (fun a mu -> a +. ((mu -. grand) *. (mu -. grand))) 0.0 means
    in
    if numerically_constant ~var:w ~mean:grand then
      if numerically_constant ~var:(b /. n) ~mean:grand then 1.0 else infinity
    else sqrt ((((n -. 1.0) /. n) *. w +. (b /. n)) /. w)
  end

(* ------------------------------------------------------------------ *)
(* Walk monitor                                                        *)
(* ------------------------------------------------------------------ *)

module Monitor = struct
  type t = {
    dim : int;
    thin : int;
    mutable seen : int; (* walk steps observed via [record] *)
    mutable kept : int; (* retained (thinned) positions *)
    mutable data : float array; (* row-major kept × dim *)
    mutable proposals : int;
    mutable accepted : int;
    mutable stall : int; (* current consecutive-rejection run *)
    mutable max_stall : int;
  }

  let create ?(thin = 1) ~dim () =
    if thin < 1 then invalid_arg "Diag.Monitor.create: thin must be >= 1";
    if dim < 1 then invalid_arg "Diag.Monitor.create: dim must be >= 1";
    { dim; thin; seen = 0; kept = 0; data = Array.make (16 * dim) 0.0;
      proposals = 0; accepted = 0; stall = 0; max_stall = 0 }

  let record_off t src off =
    if off < 0 || off + t.dim > Array.length src then
      invalid_arg "Diag.Monitor.record_off: offset out of range";
    t.seen <- t.seen + 1;
    if t.seen mod t.thin = 0 then begin
      let need = (t.kept + 1) * t.dim in
      if need > Array.length t.data then begin
        let bigger = Array.make (2 * Array.length t.data) 0.0 in
        Array.blit t.data 0 bigger 0 (t.kept * t.dim);
        t.data <- bigger
      end;
      Array.blit src off t.data (t.kept * t.dim) t.dim;
      t.kept <- t.kept + 1
    end

  let record t x =
    if Array.length x <> t.dim then invalid_arg "Diag.Monitor.record: dimension mismatch";
    record_off t x 0

  let accept t =
    t.proposals <- t.proposals + 1;
    t.accepted <- t.accepted + 1;
    t.stall <- 0

  let reject t =
    t.proposals <- t.proposals + 1;
    t.stall <- t.stall + 1;
    if t.stall > t.max_stall then t.max_stall <- t.stall

  let dim t = t.dim
  let steps t = t.seen
  let kept t = t.kept
  let proposals t = t.proposals
  let accepted t = t.accepted

  let acceptance_rate t =
    if t.proposals = 0 then 0.0 else float_of_int t.accepted /. float_of_int t.proposals

  let max_stall t = t.max_stall

  let series t j =
    if j < 0 || j >= t.dim then invalid_arg "Diag.Monitor.series: coordinate out of range";
    Array.init t.kept (fun i -> t.data.((i * t.dim) + j))

  let ess_per_coord t = Array.init t.dim (fun j -> ess (series t j))
  let mean_per_coord t = Array.init t.dim (fun j -> series_mean (series t j))
end

let split_rhat_monitors monitors ~coord =
  split_rhat (Array.of_list (List.map (fun m -> Monitor.series m coord) monitors))

(* ------------------------------------------------------------------ *)
(* Verdict                                                             *)
(* ------------------------------------------------------------------ *)

type verdict = { converged : bool; reason : string }

let assess ?(rhat_threshold = 1.1) ?(min_ess = 16.0) ~rhat ~ess:ess_chains () =
  let bad_rhat =
    Array.exists (fun r -> (not (Float.is_finite r)) || r >= rhat_threshold) rhat
  in
  let worst_ess =
    Array.fold_left
      (fun acc per_coord -> Array.fold_left Float.min acc per_coord)
      infinity ess_chains
  in
  if Array.length rhat = 0 then { converged = false; reason = "no chains recorded" }
  else if bad_rhat then
    {
      converged = false;
      reason =
        Printf.sprintf "split R-hat %.3f above threshold %.2f"
          (Array.fold_left Float.max neg_infinity rhat)
          rhat_threshold;
    }
  else if Float.is_finite worst_ess && worst_ess < min_ess then
    {
      converged = false;
      reason = Printf.sprintf "effective sample size %.1f below %.0f" worst_ess min_ess;
    }
  else { converged = true; reason = "chains agree and effective sample size is adequate" }

(* ------------------------------------------------------------------ *)
(* Binomial intervals                                                  *)
(* ------------------------------------------------------------------ *)

let clopper_pearson ?(confidence = 0.95) ~hits ~runs () =
  if runs < 1 || hits < 0 || hits > runs then invalid_arg "Diag.clopper_pearson";
  if confidence <= 0.0 || confidence >= 1.0 then
    invalid_arg "Diag.clopper_pearson: confidence must lie in (0,1)";
  let alpha = 1.0 -. confidence in
  let lf = Array.make (runs + 1) 0.0 in
  for i = 2 to runs do
    lf.(i) <- lf.(i - 1) +. log (float_of_int i)
  done;
  (* Exact binomial tails, summed in probability space from log-space
     terms: every term is <= 1, so there is no overflow to dodge and
     the sum is accurate to float precision. *)
  let tail ~ge x p =
    if p <= 0.0 then if (ge && x <= 0) || not ge then 1.0 else 0.0
    else if p >= 1.0 then if ge || x >= runs then 1.0 else 0.0
    else begin
      let lp = log p and lq = log (1.0 -. p) in
      let term k =
        exp
          (lf.(runs) -. lf.(k)
          -. lf.(runs - k)
          +. (float_of_int k *. lp)
          +. (float_of_int (runs - k) *. lq))
      in
      let s = ref 0.0 in
      if ge then
        for k = Stdlib.max 0 x to runs do
          s := !s +. term k
        done
      else
        for k = 0 to Stdlib.min runs x do
          s := !s +. term k
        done;
      Float.min 1.0 !s
    end
  in
  (* Lower bound: the p where P[X >= hits | p] (increasing in p)
     crosses α/2.  Upper bound: where P[X <= hits | p] (decreasing)
     crosses α/2. *)
  let bisect f ~increasing target =
    let lo = ref 0.0 and hi = ref 1.0 in
    for _ = 1 to 80 do
      let mid = 0.5 *. (!lo +. !hi) in
      let v = f mid in
      let mid_is_low = if increasing then v < target else v > target in
      if mid_is_low then lo := mid else hi := mid
    done;
    0.5 *. (!lo +. !hi)
  in
  let low =
    if hits = 0 then 0.0 else bisect (tail ~ge:true hits) ~increasing:true (alpha /. 2.0)
  in
  let high =
    if hits = runs then 1.0
    else bisect (tail ~ge:false hits) ~increasing:false (alpha /. 2.0)
  in
  (low, high)
