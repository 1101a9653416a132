module Probe = Scdb_obs.Probe

let trial = Probe.trial ~counter:"pyramid.trials" ()

let build_phase =
  Probe.phase "pyramid.build" (fun faces vertices ->
      [ Probe.int "faces" faces; Probe.int "vertices" vertices ])

type decline =
  | Too_many_rows of int
  | No_interior
  | Ill_conditioned_vertex of float
  | Apex_on_facet
  | Apex_volumes_disagree of { vertex_mean : float; origin : float }

let decline_reason = function
  | Too_many_rows m -> Printf.sprintf "%d rows exceed a 62-row set" m
  | No_interior -> "no interior point at the origin"
  | Ill_conditioned_vertex p -> Printf.sprintf "ill-conditioned vertex system (pivot %.3g)" p
  | Apex_on_facet -> "a face apex lies on one of its facets"
  | Apex_volumes_disagree { vertex_mean; origin } ->
      Printf.sprintf "apex volumes disagree (%.17g vs %.17g)" vertex_mean origin

(* Faces are numbered in creation order; a face's facets come before it,
   so the body is the last face. *)
type t = {
  dim : int;
  fdim : int array;  (** each face's dimension *)
  inv_dim : float array;  (** 1/k, the radial exponent *)
  apex : float array array;  (** vertex mean; a 0-face's vertex *)
  facets : int array array;
  cum : float array array;  (** cumulative h·vol(G) over [facets] *)
  root : int;
  volume : float;
  nvertices : int;
  box : Vec.t * Vec.t;
}

exception Decline of decline

let volume t = t.volume
let faces t = Array.length t.fdim
let vertices t = t.nvertices
let bounding_box t = t.box

(* Below this pivot (rows of unit norm) a vertex system is singular and
   names no vertex; below [ill_pivot] a feasible one is declined. *)
let singular_pivot = 1e-12
let ill_pivot = 1e-8

(* Solve the square system of [rows] by Gaussian elimination with
   partial pivoting: the solution and the smallest pivot, or [None]
   when singular. *)
let solve_rows ~d (a : float array array) (b : float array) rows =
  let m = Array.init d (fun i -> Array.append (Array.copy a.(rows.(i))) [| b.(rows.(i)) |]) in
  let min_pivot = ref infinity in
  (try
     for col = 0 to d - 1 do
       let best = ref col in
       for r = col + 1 to d - 1 do
         if Float.abs m.(r).(col) > Float.abs m.(!best).(col) then best := r
       done;
       let tmp = m.(col) in
       m.(col) <- m.(!best);
       m.(!best) <- tmp;
       let p = m.(col).(col) in
       min_pivot := Float.min !min_pivot (Float.abs p);
       if Float.abs p < singular_pivot then raise Exit;
       for r = col + 1 to d - 1 do
         let f = m.(r).(col) /. p in
         if f <> 0.0 then
           for c = col to d do
             m.(r).(c) <- m.(r).(c) -. (f *. m.(col).(c))
           done
       done
     done
   with Exit -> ());
  if !min_pivot < singular_pivot then None
  else begin
    let x = Array.make d 0.0 in
    for r = d - 1 downto 0 do
      let s = ref m.(r).(d) in
      for c = r + 1 to d - 1 do
        s := !s -. (m.(r).(c) *. x.(c))
      done;
      x.(r) <- !s /. m.(r).(r)
    done;
    Some (x, !min_pivot)
  end

let[@inline] dot (u : float array) (v : float array) =
  let s = ref 0.0 in
  for i = 0 to Array.length u - 1 do
    s := !s +. (u.(i) *. v.(i))
  done;
  !s

(* [dst] := [a] minus its components along the orthonormal [basis]. *)
let project_into dst basis (a : float array) =
  Array.blit a 0 dst 0 (Array.length a);
  List.iter
    (fun q ->
      let c = dot q dst in
      for i = 0 to Array.length q - 1 do
        dst.(i) <- dst.(i) -. (c *. q.(i))
      done)
    basis

let[@inline] norm u = sqrt (dot u u)

(* Every [k]-subset of [0, n), in lexicographic order. *)
let iter_subsets n k f =
  let idx = Array.make k 0 in
  let rec go pos start =
    if pos = k then f idx
    else
      for i = start to n - (k - pos) do
        idx.(pos) <- i;
        go (pos + 1) (i + 1)
      done
  in
  go 0 0

let build_exn (p : Polytope.t) =
  let d = Polytope.dim p in
  (* Rows scaled to unit norm; all-zero rows constrain nothing. *)
  let rows =
    List.filter_map
      (fun i ->
        let a = Array.sub p.Polytope.flat (i * d) d in
        let n = norm a in
        if n = 0.0 then None else Some (Array.map (fun x -> x /. n) a, p.Polytope.b.(i) /. n))
      (List.init (Polytope.num_constraints p) Fun.id)
  in
  let m = List.length rows in
  if m > 62 then raise (Decline (Too_many_rows m));
  let a = Array.of_list (List.map fst rows) and b = Array.of_list (List.map snd rows) in
  if d = 0 || Array.exists (fun bi -> bi <= 0.0) b then raise (Decline No_interior);
  let tol i = 1e-9 *. (1.0 +. Float.abs b.(i)) in
  (* Vertices, one per tight-row set. *)
  let seen_vertex = Hashtbl.create 64 in
  let verts = ref [] in
  if m >= d then
    iter_subsets m d (fun sub ->
        match solve_rows ~d a b sub with
        | None -> ()
        | Some (v, pivot) ->
            let feasible = ref true and mask = ref 0 in
            for i = 0 to m - 1 do
              let s = dot a.(i) v -. b.(i) in
              if s > tol i then feasible := false
              else if s >= -.tol i then mask := !mask lor (1 lsl i)
            done;
            if !feasible then begin
              if pivot < ill_pivot then raise (Decline (Ill_conditioned_vertex pivot));
              if not (Hashtbl.mem seen_vertex !mask) then begin
                Hashtbl.replace seen_vertex !mask ();
                verts := (v, !mask) :: !verts
              end
            end);
  let verts = Array.of_list (List.rev !verts) in
  let nv = Array.length verts in
  if nv < d + 1 then raise (Decline No_interior);
  let fdim = ref [] and apex = ref [] and facets = ref [] and cum = ref [] and nfaces = ref 0 in
  let memo = Hashtbl.create 256 and origin_sum = ref 0.0 in
  let vmask = Array.map snd verts in
  (* The face whose tight rows are [mask], with vertex indices [vs],
     dimension [k] and an orthonormal basis of its tight rows' span:
     its index and volume. *)
  let rec face mask (vs : int array) k basis =
    match Hashtbl.find_opt memo mask with
    | Some r -> r
    | None ->
        let r =
          if k = 0 then add_face 0 (fst verts.(vs.(0))) [||] [||] 1.0
          else begin
            let c = Array.make d 0.0 in
            Array.iter (fun v -> Array.iteri (fun i x -> c.(i) <- c.(i) +. x) (fst verts.(v))) vs;
            let inv = 1.0 /. float_of_int (Array.length vs) in
            Array.iteri (fun i x -> c.(i) <- x *. inv) c;
            let seen = ref [] and kids = ref [] and weights = ref [] in
            let proj = Array.make d 0.0 in
            for r = 0 to m - 1 do
              let bit = 1 lsl r in
              if mask land bit = 0 then begin
                (* G: the vertices of F tight on r, and the rows tight on
                   all of them. *)
                let gmask = ref (-1) and on = ref 0 in
                for i = 0 to Array.length vs - 1 do
                  let mv = vmask.(vs.(i)) in
                  if mv land bit <> 0 then begin
                    gmask := !gmask land mv;
                    incr on
                  end
                done;
                let gmask = !gmask in
                if !on > 0 && not (List.mem gmask !seen) then begin
                  seen := gmask :: !seen;
                  let uhat = Array.make d 0.0 in
                  project_into uhat basis a.(r);
                  let nu = norm uhat in
                  if nu > 1e-12 then begin
                    for i = 0 to d - 1 do
                      uhat.(i) <- uhat.(i) /. nu
                    done;
                    (* A facet adds one direction to the tight span: every
                       other new row projects onto [uhat]. *)
                    let facet = ref true in
                    for s = 0 to m - 1 do
                      if s <> r && gmask land (1 lsl s) <> 0 && mask land (1 lsl s) = 0 then begin
                        project_into proj basis a.(s);
                        let along = dot proj uhat and off = ref 0.0 in
                        for i = 0 to d - 1 do
                          let e = proj.(i) -. (along *. uhat.(i)) in
                          off := !off +. (e *. e)
                        done;
                        if sqrt !off > 1e-9 then facet := false
                      end
                    done;
                    if !facet then begin
                      let h = (b.(r) -. dot a.(r) c) /. nu in
                      if not (h > 0.0) then raise (Decline Apex_on_facet);
                      let gvs = Array.make !on 0 and j = ref 0 in
                      Array.iter
                        (fun v ->
                          if vmask.(v) land bit <> 0 then begin
                            gvs.(!j) <- v;
                            incr j
                          end)
                        vs;
                      let g, vol_g = face gmask gvs (k - 1) (uhat :: basis) in
                      if mask = 0 then origin_sum := !origin_sum +. (b.(r) *. vol_g);
                      kids := g :: !kids;
                      weights := (h *. vol_g) :: !weights
                    end
                  end
                end
              end
            done;
            let kids = Array.of_list (List.rev !kids) in
            let w = Array.of_list (List.rev !weights) in
            for i = 1 to Array.length w - 1 do
              w.(i) <- w.(i) +. w.(i - 1)
            done;
            let total = if w = [||] then 0.0 else w.(Array.length w - 1) in
            if kids = [||] then raise (Decline No_interior);
            add_face k c kids w (total /. float_of_int k)
          end
        in
        Hashtbl.replace memo mask r;
        r
  and add_face k c kids w vol =
    fdim := k :: !fdim;
    apex := c :: !apex;
    facets := kids :: !facets;
    cum := w :: !cum;
    incr nfaces;
    (!nfaces - 1, vol)
  in
  let root_mask = Array.fold_left (fun acc (_, mk) -> acc land mk) (-1) verts in
  if root_mask <> 0 then raise (Decline No_interior);
  let root, vol = face 0 (Array.init nv Fun.id) d [] in
  let rev l = Array.of_list (List.rev l) in
  let fdim = rev !fdim in
  let t =
    {
      dim = d;
      fdim;
      inv_dim = Array.map (fun k -> if k = 0 then 0.0 else 1.0 /. float_of_int k) fdim;
      apex = rev !apex;
      facets = rev !facets;
      cum = rev !cum;
      root;
      volume = vol;
      nvertices = nv;
      box =
        ( Array.init d (fun i -> Array.fold_left (fun m (v, _) -> Float.min m v.(i)) infinity verts),
          Array.init d (fun i -> Array.fold_left (fun m (v, _) -> Float.max m v.(i)) neg_infinity verts) );
    }
  in
  (* The second interior apex: the origin, at height b_G over each body
     facet G (rows are unit). *)
  let origin = !origin_sum /. float_of_int d in
  if not (Float.abs (origin -. vol) <= 1e-9 *. Float.abs vol) then
    raise (Decline (Apex_volumes_disagree { vertex_mean = vol; origin }));
  t

let build p =
  let sp = Probe.enter build_phase in
  match build_exn p with
  | t ->
      Probe.leave2 build_phase sp (faces t) t.nvertices;
      Ok t
  | exception Decline e ->
      Probe.leave2 build_phase sp 0 0;
      Error e

let sample t rng =
  Probe.trials trial 1;
  let path = Array.make (t.dim + 1) t.root in
  let f = ref t.root and depth = ref 0 in
  while Array.unsafe_get t.fdim !f > 0 do
    let cum = t.cum.(!f) in
    let n = Array.length cum in
    let u = Rng.float rng *. cum.(n - 1) in
    let j = ref 0 in
    while !j < n - 1 && u >= cum.(!j) do
      incr j
    done;
    f := t.facets.(!f).(!j);
    incr depth;
    path.(!depth) <- !f
  done;
  let x = Array.copy t.apex.(!f) in
  for i = !depth - 1 downto 0 do
    let face = path.(i) in
    let s = Float.pow (Rng.float rng) t.inv_dim.(face) in
    let c = t.apex.(face) in
    for j = 0 to t.dim - 1 do
      x.(j) <- c.(j) +. (s *. (x.(j) -. c.(j)))
    done
  done;
  x
