let eps = 1e-9

let vertices (p : Polytope.t) =
  if Polytope.dim p <> 2 then invalid_arg "Polygon2d.vertices: not 2-D";
  let m = Polytope.num_constraints p in
  let candidates = ref [] in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      let a1 = p.a.(i) and a2 = p.a.(j) in
      let det = (a1.(0) *. a2.(1)) -. (a1.(1) *. a2.(0)) in
      if Float.abs det > eps then begin
        let x = ((p.b.(i) *. a2.(1)) -. (p.b.(j) *. a1.(1))) /. det in
        let y = ((a1.(0) *. p.b.(j)) -. (a2.(0) *. p.b.(i))) /. det in
        let v = [| x; y |] in
        if Polytope.mem ~slack:1e-7 p v then candidates := v :: !candidates
      end
    done
  done;
  (* Deduplicate near-identical intersection points. *)
  let distinct =
    List.fold_left
      (fun acc v -> if List.exists (fun w -> Vec.dist v w < 1e-7) acc then acc else v :: acc)
      [] !candidates
  in
  match distinct with
  | [] | [ _ ] | [ _; _ ] -> []
  | vs ->
      let n = float_of_int (List.length vs) in
      let cx = List.fold_left (fun acc v -> acc +. v.(0)) 0.0 vs /. n in
      let cy = List.fold_left (fun acc v -> acc +. v.(1)) 0.0 vs /. n in
      List.sort
        (fun v w ->
          Float.compare (Float.atan2 (v.(1) -. cy) (v.(0) -. cx)) (Float.atan2 (w.(1) -. cy) (w.(0) -. cx)))
        vs

let shoelace vs =
  match vs with
  | [] | [ _ ] | [ _; _ ] -> 0.0
  | first :: _ ->
      let rec go acc = function
        | [ last ] -> acc +. ((last.(0) *. first.(1)) -. (first.(0) *. last.(1)))
        | v :: (w :: _ as rest) -> go (acc +. ((v.(0) *. w.(1)) -. (w.(0) *. v.(1)))) rest
        | [] -> acc
      in
      Float.abs (go 0.0 vs) /. 2.0

let area p = shoelace (vertices p)

let perimeter p =
  match vertices p with
  | [] -> 0.0
  | first :: _ as vs ->
      let rec go acc = function
        | [ last ] -> acc +. Vec.dist last first
        | v :: (w :: _ as rest) -> go (acc +. Vec.dist v w) rest
        | [] -> acc
      in
      go 0.0 vs

let centroid p =
  let vs = vertices p in
  let a = shoelace vs in
  if a < eps then None
  else begin
    (* Standard polygon centroid via the signed cross products. *)
    match vs with
    | [] -> None
    | first :: _ ->
        let cx = ref 0.0 and cy = ref 0.0 and signed = ref 0.0 in
        let edge v w =
          let cross = (v.(0) *. w.(1)) -. (w.(0) *. v.(1)) in
          signed := !signed +. cross;
          cx := !cx +. ((v.(0) +. w.(0)) *. cross);
          cy := !cy +. ((v.(1) +. w.(1)) *. cross)
        in
        let rec go = function
          | [ last ] -> edge last first
          | v :: (w :: _ as rest) ->
              edge v w;
              go rest
          | [] -> ()
        in
        go vs;
        if Float.abs !signed < eps then None
        else Some [| !cx /. (3.0 *. !signed); !cy /. (3.0 *. !signed) |]
  end

