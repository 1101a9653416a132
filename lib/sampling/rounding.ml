type t = {
  transform : Affine.t;
  rounded : Polytope.t;
  centre : Vec.t;
  r_inf : float;
  r_sup : float;
}

let covariance points mean =
  let d = Vec.dim mean in
  let n = float_of_int (List.length points) in
  let c = Mat.create d d in
  List.iter
    (fun p ->
      let delta = Vec.sub p mean in
      for i = 0 to d - 1 do
        for j = 0 to d - 1 do
          c.(i).(j) <- c.(i).(j) +. (delta.(i) *. delta.(j) /. n)
        done
      done)
    points;
  (* Small ridge keeps the Cholesky factor well-defined on degenerate
     sample clouds. *)
  for i = 0 to d - 1 do
    c.(i).(i) <- c.(i).(i) +. 1e-9
  done;
  c

let full_ball poly =
  match Polytope.chebyshev poly with Some (_, r) as ball when r > 0.0 -> ball | _ -> None

let inscribed_ball poly =
  if Polytope.is_empty poly || not (Polytope.is_bounded poly) then None else full_ball poly

(* Affine map moving the Chebyshev centre to the origin and scaling the
   inscribed ball to radius 1. *)
let recentre_at ~d (centre, r) =
  let scale = Mat.init d d (fun i j -> if i = j then 1.0 /. r else 0.0) in
  Affine.make scale (Vec.scale (-1.0 /. r) centre)

let recentre poly = Option.bind (full_ball poly) (recentre_at ~d:(Polytope.dim poly))

let round rng ?(rounds = 2) ?samples_per_round poly =
  let d = Polytope.dim poly in
  let samples_per_round = Option.value samples_per_round ~default:(16 * d) in
  match inscribed_ball poly with
  | None -> None
  | Some ball -> (
    Scdb_trace.Trace.span "rounding.round"
      ~attrs:
        [ ("dim", string_of_int d); ("rounds", string_of_int rounds);
          ("samples_per_round", string_of_int samples_per_round) ]
    @@ fun () ->
    match recentre_at ~d ball with
    | None -> None
    | Some t0 ->
        let transform = ref t0 in
        let body = ref (Polytope.transform t0 poly) in
        for _ = 1 to rounds do
          let steps = Hit_and_run.default_steps ~dim:d in
          let start = ref (Vec.create d) in
          let points =
            List.init samples_per_round (fun _ ->
                let p =
                  (Hit_and_run.sample_polytope_batch [| rng |] !body ~starts:[| !start |] ~steps)
                    .(0)
                in
                start := p;
                p)
          in
          let n = float_of_int samples_per_round in
          let mean =
            Vec.scale (1.0 /. n) (List.fold_left Vec.add (Vec.create d) points)
          in
          let cov = covariance points mean in
          (match Mat.cholesky cov with
          | None -> () (* degenerate cloud: skip the whitening round *)
          | Some l -> (
              match Mat.inv l with
              | None -> ()
              | Some l_inv -> (
                  match Affine.make l_inv (Vec.neg (Mat.mul_vec l_inv mean)) with
                  | None -> ()
                  | Some whiten ->
                      body := Polytope.transform whiten !body;
                      transform := Affine.compose whiten !transform)));
          (* Keep the Chebyshev centre at the origin between rounds. *)
          match recentre !body with
          | None -> ()
          | Some re ->
              body := Polytope.transform re !body;
              transform := Affine.compose re !transform
        done;
        (match recentre !body with
        | Some re ->
            body := Polytope.transform re !body;
            transform := Affine.compose re !transform
        | None -> ());
        (match Polytope.sandwich !body with
        | None -> None
        | Some (centre, r_inf, r_sup) ->
            Some { transform = !transform; rounded = !body; centre; r_inf; r_sup }))

let aspect_ratio t = t.r_sup /. t.r_inf
