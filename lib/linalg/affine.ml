type t = { mat : Mat.t; offset : Vec.t; inv_mat : Mat.t; det : float }

let make a b =
  match Mat.inv a with
  | None -> None
  | Some inv_mat ->
      let det = Mat.det a in
      if det = 0.0 then None else Some { mat = a; offset = Vec.copy b; inv_mat; det }

let identity d = { mat = Mat.identity d; offset = Vec.create d; inv_mat = Mat.identity d; det = 1.0 }

let translation b = { (identity (Vec.dim b)) with offset = Vec.copy b }

let scaling factors =
  if Array.exists (fun f -> f = 0.0) factors then None
  else begin
    let d = Vec.dim factors in
    let inv = Vec.map (fun f -> 1.0 /. f) factors in
    let det = Array.fold_left ( *. ) 1.0 factors in
    Some { mat = Mat.diag factors; offset = Vec.create d; inv_mat = Mat.diag inv; det }
  end

let apply t x = Vec.add (Mat.mul_vec t.mat x) t.offset
(* [inv_mat · (y − offset)] with [Mat.mul_vec]'s and [Vec.sub]'s
   arithmetic, into one fresh vector. *)
let apply_inverse t y =
  let inv = t.inv_mat and off = t.offset in
  let d = Vec.dim off in
  if Vec.dim y <> d then invalid_arg "Affine.apply_inverse: dimension mismatch";
  let x = Vec.create (Array.length inv) in
  for i = 0 to Array.length inv - 1 do
    let row = Array.unsafe_get inv i in
    if Vec.dim row <> d then invalid_arg "Affine.apply_inverse: dimension mismatch";
    let s = ref 0.0 in
    for k = 0 to d - 1 do
      s := !s +. (Array.unsafe_get row k *. (Array.unsafe_get y k -. Array.unsafe_get off k))
    done;
    x.(i) <- !s
  done;
  x

let compose f g =
  {
    mat = Mat.mul f.mat g.mat;
    offset = Vec.add (Mat.mul_vec f.mat g.offset) f.offset;
    inv_mat = Mat.mul g.inv_mat f.inv_mat;
    det = f.det *. g.det;
  }

let inverse t =
  {
    mat = t.inv_mat;
    offset = Vec.neg (Mat.mul_vec t.inv_mat t.offset);
    inv_mat = t.mat;
    det = 1.0 /. t.det;
  }

let volume_scale t = Float.abs t.det
let dim t = Vec.dim t.offset

let pp fmt t = Format.fprintf fmt "@[<v>A =@ %a@ b = %a@]" Mat.pp t.mat Vec.pp t.offset
