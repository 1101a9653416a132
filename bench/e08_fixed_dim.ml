(* E8 — Theorem 3.1 vs the general machinery.

   The fixed-dimension grid method costs (R/γ)^d membership tests; the
   DFK pipeline costs poly(d).  We measure both on unit cubes of growing
   dimension and print the crossover: the grid wins in very small
   dimension, the walk wins as soon as (R/γ)^d explodes.  The grid
   column is Theorem 3.1's observable itself ([Fixed_dim.observable]):
   its volume, and a sample from its generator checked for membership. *)

module P = Scdb_polytope.Polytope
module Vol = Scdb_sampling.Volume
module Rng = Scdb_rng.Rng

let run ~fast =
  Util.header "E8: fixed-dimension grid method vs random walk (Thm 3.1)";
  let rng = Util.fresh_rng () in
  (* The grid draws from its own stream, so the walk column does not depend on them. *)
  let grid_rng = Util.fresh_rng () in
  let gamma = 0.1 in
  let params = Params.make ~gamma () in
  let draws = 200 in
  let dims = if fast then [ 1; 2; 3; 4 ] else [ 1; 2; 3; 4; 5; 6 ] in
  let budget = if fast then 400 else 1500 in
  let rows =
    List.map
      (fun d ->
        let rel = Relation.unit_cube d in
        (* On the unit cube the decomposition scans exactly (1/γ)^d cells. *)
        let grid_cells = int_of_float (Float.round ((1.0 /. gamma) ** float_of_int d)) in
        let grid_result =
          if grid_cells <= 2_000_000 then begin
            (* The volume estimator's resolution is γ = ε; the generator
               reads the same γ from [params], so it reuses the cached
               decomposition the timed volume built. *)
            let (measured, t) =
              Util.time_it (fun () ->
                  Option.map
                    (fun obs -> (obs, Observable.volume obs grid_rng ~eps:gamma ~delta:0.1))
                    (Fixed_dim.observable rel))
            in
            Option.map
              (fun (obs, v) ->
                let inside = ref 0 in
                for _ = 1 to draws do
                  if Relation.mem_float rel (Observable.sample_exn obs grid_rng params) then incr inside
                done;
                (v, t, !inside))
              measured
          end
          else None
        in
        let (walk_result, walk_time) =
          Util.time_it (fun () ->
              Vol.estimate rng ~budget:(Vol.Practical budget) (P.unit_cube d))
        in
        let grid_cols =
          match grid_result with
          | Some (v, t, inside) ->
              [
                Util.fmt_f ~digits:3 v;
                string_of_int grid_cells;
                Util.fmt_f ~digits:3 t;
                Printf.sprintf "%d/%d" inside draws;
              ]
          | None -> [ "-"; Printf.sprintf "%d (skip)" grid_cells; "-"; "-" ]
        in
        let walk_cols =
          match walk_result with
          | Some r -> [ Util.fmt_f ~digits:3 r.Vol.volume; Util.fmt_f ~digits:3 walk_time ]
          | None -> [ "fail"; "-" ]
        in
        (string_of_int d :: grid_cols) @ walk_cols)
      dims
  in
  Util.table
    [
      ("dim", 4);
      ("grid vol", 9);
      ("grid cells", 14);
      ("grid time(s)", 12);
      ("grid draws in", 13);
      ("walk vol", 9);
      ("walk time(s)", 12);
    ]
    rows;
  Printf.printf
    "Expectation: grid cell count grows as (1/γ)^d = 10^d, so grid time grows\n\
     tenfold per dimension while the walk grows polynomially; extrapolating the\n\
     last rows puts the crossover near d=7 at γ=0.1 (and earlier for finer γ).\n"
