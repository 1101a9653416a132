let observable ?(max_cells = 2_000_000) r =
  if Relation.is_syntactically_empty r then None
  else begin
    match Gridvol.relation_bbox r with
    | None -> None
    | Some (lo, hi) ->
        let dim = Relation.dim r in
        (* Upper-bound the γ so that the decomposition fits the budget. *)
        let min_gamma =
          let widest = Array.fold_left Float.max 0.0 (Vec.sub hi lo) in
          widest /. (float_of_int max_cells ** (1.0 /. float_of_int dim))
        in
        let cache : (float, Gridvol.t option) Hashtbl.t = Hashtbl.create 4 in
        let decomposition gamma =
          let gamma = Float.max gamma min_gamma in
          match Hashtbl.find_opt cache gamma with
          | Some g -> g
          | None ->
              let g = Gridvol.build ~gamma r in
              Hashtbl.replace cache gamma g;
              g
        in
        let scale = Array.fold_left Float.max 1e-9 (Vec.sub hi lo) in
        let sample rng params =
          match decomposition (Params.gamma params *. scale) with
          | None -> None
          | Some g -> if Gridvol.cell_count g = 0 then None else Some (Gridvol.sample g rng)
        in
        (* The grid decomposition is ε-driven; γ only matters to the
           sample path, which reads it from [Params]. *)
        let volume _rng ~gamma:_ ~eps ~delta:_ =
          match decomposition (eps *. scale) with
          | None -> raise (Observable.Estimation_failed "empty or unbounded relation")
          | Some g -> Gridvol.volume g
        in
        Some
          (Observable.make ~relation:r ~dim
             ~mem:(Relation.mem_fn ~slack:1e-9 r)
             ~sample ~volume ())
  end

let exact_volume r = Volume_exact.volume_relation r
