module Diag = Scdb_diag.Diag
module Trace = Scdb_trace.Trace
module Probe = Scdb_obs.Probe
module Json = Scdb_json.Json

type chain = {
  ess : float array;
  mean : float array;
  kept : int;
  acceptance_rate : float;
  max_stall : int;
}

type t = {
  dim : int;
  chains : chain array;
  thin : int;
  samples_per_chain : int;
  rhat : float array;
  verdict : Diag.verdict;
}

let not_converged =
  Probe.warning "diag.not_converged" (fun reason rhat chains samples_per_chain ->
      [
        Probe.str "reason" reason;
        Probe.float "max_rhat" (Array.fold_left Float.max Float.nan rhat);
        Probe.int "chains" chains;
        Probe.int "samples_per_chain" samples_per_chain;
      ])

let default_chains = 4
let default_samples_per_chain = 64

let run ?(chains = default_chains) ?(samples_per_chain = default_samples_per_chain) rng poly =
  if chains < 1 then invalid_arg "Diag_run.run: chains must be >= 1";
  if samples_per_chain < 4 then invalid_arg "Diag_run.run: samples_per_chain must be >= 4";
  let dim = Polytope.dim poly in
  Trace.span "diag.run"
    ~attrs:
      [
        ("dim", string_of_int dim);
        ("chains", string_of_int chains);
        ("samples_per_chain", string_of_int samples_per_chain);
      ]
  @@ fun () ->
  match Rounding.round rng poly with
  | None -> None
  | Some rounded ->
      let body = rounded.Rounding.rounded in
      (* Thin at the paper-prescribed walk length: each retained draw
         has had a full mixing budget since the previous one, so the
         retained series is close to iid and R̂/ESS read cleanly. *)
      let thin = Hit_and_run.default_steps ~dim in
      let steps = thin * samples_per_chain in
      (* All chains run through the batched SoA kernel in one call:
         per-chain monitors replace the old sequential loop, and each
         chain draws from its own split of the caller's generator. *)
      let monitors = Array.init chains (fun _ -> Diag.Monitor.create ~thin ~dim ()) in
      let rngs = Array.init chains (fun _ -> Rng.split rng) in
      let starts = Array.init chains (fun _ -> Vec.create dim) in
      ignore (Hit_and_run.sample_polytope_batch ~monitors rngs body ~starts ~steps);
      let chains_stats =
        Array.map
          (fun m ->
            {
              ess = Diag.Monitor.ess_per_coord m;
              mean = Diag.Monitor.mean_per_coord m;
              kept = Diag.Monitor.kept m;
              acceptance_rate = Diag.Monitor.acceptance_rate m;
              max_stall = Diag.Monitor.max_stall m;
            })
          monitors
      in
      let monitor_list = Array.to_list monitors in
      let rhat =
        Array.init dim (fun c -> Diag.split_rhat_monitors monitor_list ~coord:c)
      in
      let ess = Array.map (fun c -> c.ess) chains_stats in
      let verdict = Diag.assess ~rhat ~ess () in
      if not verdict.Diag.converged then
        Probe.warn4 not_converged verdict.Diag.reason rhat chains samples_per_chain;
      Trace.add_attr "converged" (string_of_bool verdict.Diag.converged);
      Some
        {
          dim;
          chains = chains_stats;
          thin;
          samples_per_chain;
          rhat;
          verdict;
        }

let to_json t =
  let floats a = Json.nums (Array.to_list a) in
  let chain c =
    Json.Obj
      [
        ("kept", Json.Int c.kept);
        ("acceptance_rate", Json.Num c.acceptance_rate);
        ("max_stall", Json.Int c.max_stall);
        ("ess", floats c.ess);
        ("mean", floats c.mean);
      ]
  in
  Json.Obj
    [
      ("dim", Json.Int t.dim);
      ("chains", Json.Int (Array.length t.chains));
      ("thin", Json.Int t.thin);
      ("samples_per_chain", Json.Int t.samples_per_chain);
      ("rhat", floats t.rhat);
      ("per_chain", Json.Arr (Array.to_list (Array.map chain t.chains)));
      ("converged", Json.Bool t.verdict.Diag.converged);
      ("reason", Json.Str t.verdict.Diag.reason);
    ]
