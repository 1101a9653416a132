module Rng = Scdb_rng.Rng

type t = {
  pts : Vec.t array;
  dim : int;
  polygon : Vec.t list option; (* 2-D fast path: hull vertices, O(n) membership *)
}

let of_points pts =
  if Array.length pts = 0 then invalid_arg "Hull_lp.of_points: no points";
  let dim = Vec.dim pts.(0) in
  Array.iter (fun p -> if Vec.dim p <> dim then invalid_arg "Hull_lp.of_points: mixed dimensions") pts;
  let polygon = if dim = 2 then Some (Hull2d.hull (Array.to_list pts)) else None in
  { pts = Array.map Vec.copy pts; dim; polygon }

let dim t = t.dim
let points t = Array.map Vec.copy t.pts

let mem t x =
  match t.polygon with
  | Some vs -> Hull2d.mem vs x
  | None -> Scdb_lp.Lp.in_hull ~points:t.pts x

let bounding_box t =
  let lo = Vec.init t.dim (fun i -> Array.fold_left (fun acc p -> Float.min acc p.(i)) infinity t.pts) in
  let hi = Vec.init t.dim (fun i -> Array.fold_left (fun acc p -> Float.max acc p.(i)) neg_infinity t.pts) in
  (lo, hi)

let box_volume lo hi =
  let v = ref 1.0 in
  for i = 0 to Vec.dim lo - 1 do
    v := !v *. Float.max 0.0 (hi.(i) -. lo.(i))
  done;
  !v

let volume_mc rng ?(samples = 20_000) t =
  let lo, hi = bounding_box t in
  let vol_box = box_volume lo hi in
  if vol_box = 0.0 then 0.0
  else begin
    let hits = ref 0 in
    for _ = 1 to samples do
      if mem t (Rng.in_box rng lo hi) then incr hits
    done;
    vol_box *. float_of_int !hits /. float_of_int samples
  end

let symmetric_difference_mc rng ?(samples = 20_000) t other ~lo ~hi =
  let vol_box = box_volume lo hi in
  if vol_box = 0.0 then 0.0
  else begin
    let hits = ref 0 in
    for _ = 1 to samples do
      let x = Rng.in_box rng lo hi in
      if mem t x <> other x then incr hits
    done;
    vol_box *. float_of_int !hits /. float_of_int samples
  end
