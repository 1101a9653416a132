type t = { gamma : float; eps : float; delta : float }

let check name v =
  if not (v > 0.0 && v < 1.0) then
    invalid_arg (Printf.sprintf "Params.make: %s = %g not in (0,1)" name v)

let make ?(gamma = 0.1) ?(eps = 0.1) ?(delta = 0.1) () =
  check "gamma" gamma;
  check "eps" eps;
  check "delta" delta;
  { gamma; eps; delta }

let default = make ()

let gamma t = t.gamma
let eps t = t.eps
let delta t = t.delta

let third_eps t = { t with eps = t.eps /. 3.0 }

let pp fmt t = Format.fprintf fmt "(γ=%g, ε=%g, δ=%g)" t.gamma t.eps t.delta
