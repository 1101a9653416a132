type t = float array array

let create r c = Array.make_matrix r c 0.0
let init r c f = Array.init r (fun i -> Array.init c (fun j -> f i j))
let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)
let diag v = init (Vec.dim v) (Vec.dim v) (fun i j -> if i = j then v.(i) else 0.0)

let dims m = (Array.length m, if Array.length m = 0 then 0 else Array.length m.(0))

let copy m = Array.map Array.copy m
let of_rows rows = Array.of_list (List.map Array.copy rows)
let rows m = Array.to_list (copy m)

let transpose m =
  let r, c = dims m in
  init c r (fun i j -> m.(j).(i))

let zip_with f a b =
  let ra, ca = dims a and rb, cb = dims b in
  if ra <> rb || ca <> cb then invalid_arg "Mat: dimension mismatch";
  init ra ca (fun i j -> f a.(i).(j) b.(i).(j))

let add = zip_with ( +. )
let sub = zip_with ( -. )
let scale s = Array.map (Vec.scale s)

let mul a b =
  let ra, ca = dims a and rb, cb = dims b in
  if ca <> rb then invalid_arg "Mat.mul: dimension mismatch";
  init ra cb (fun i j ->
      let s = ref 0.0 in
      for k = 0 to ca - 1 do
        s := !s +. (a.(i).(k) *. b.(k).(j))
      done;
      !s)

let mul_vec a v =
  let ra, ca = dims a in
  if ca <> Vec.dim v then invalid_arg "Mat.mul_vec: dimension mismatch";
  Vec.init ra (fun i -> Vec.dot a.(i) v)

let pivot_tolerance = 1e-12

let lu m =
  let n, c = dims m in
  if n <> c then invalid_arg "Mat.lu: not square";
  let a = copy m in
  let perm = Array.init n (fun i -> i) in
  let parity = ref 1 in
  let singular = ref false in
  (let k = ref 0 in
   while (not !singular) && !k < n do
     let kk = !k in
     (* Partial pivoting: bring the largest remaining entry of column kk up. *)
     let best = ref kk in
     for i = kk + 1 to n - 1 do
       if Float.abs a.(i).(kk) > Float.abs a.(!best).(kk) then best := i
     done;
     if Float.abs a.(!best).(kk) < pivot_tolerance then singular := true
     else begin
       if !best <> kk then begin
         let tmp = a.(kk) in
         a.(kk) <- a.(!best);
         a.(!best) <- tmp;
         let tp = perm.(kk) in
         perm.(kk) <- perm.(!best);
         perm.(!best) <- tp;
         parity := - !parity
       end;
       for i = kk + 1 to n - 1 do
         let f = a.(i).(kk) /. a.(kk).(kk) in
         a.(i).(kk) <- f;
         for j = kk + 1 to n - 1 do
           a.(i).(j) <- a.(i).(j) -. (f *. a.(kk).(j))
         done
       done;
       incr k
     end
   done);
  if !singular then None else Some (a, perm, !parity)

let lu_solve (lu, perm, _) b =
  let n = Array.length lu in
  let y = Vec.create n in
  for i = 0 to n - 1 do
    let s = ref b.(perm.(i)) in
    for j = 0 to i - 1 do
      s := !s -. (lu.(i).(j) *. y.(j))
    done;
    y.(i) <- !s
  done;
  let x = Vec.create n in
  for i = n - 1 downto 0 do
    let s = ref y.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (lu.(i).(j) *. x.(j))
    done;
    x.(i) <- !s /. lu.(i).(i)
  done;
  x

let solve m b = Option.map (fun f -> lu_solve f b) (lu m)

let inv m =
  let n = Array.length m in
  match lu m with
  | None -> None
  | Some f ->
      let cols = List.init n (fun j -> lu_solve f (Vec.basis n j)) in
      Some (transpose (of_rows cols))

let det m =
  match lu m with
  | None -> 0.0
  | Some (lu, _, parity) ->
      let n = Array.length lu in
      let d = ref (float_of_int parity) in
      for i = 0 to n - 1 do
        d := !d *. lu.(i).(i)
      done;
      !d

let cholesky m =
  let n, c = dims m in
  if n <> c then invalid_arg "Mat.cholesky: not square";
  let l = create n n in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let s = ref m.(i).(j) in
      for k = 0 to j - 1 do
        s := !s -. (l.(i).(k) *. l.(j).(k))
      done;
      if i = j then
        if !s <= 0.0 then ok := false else l.(i).(i) <- sqrt !s
      else if l.(j).(j) = 0.0 then ok := false
      else l.(i).(j) <- !s /. l.(j).(j)
    done
  done;
  if !ok then Some l else None

let solve_lower_triangular l b =
  let n = Array.length l in
  let x = Vec.create n in
  for i = 0 to n - 1 do
    let s = ref b.(i) in
    for j = 0 to i - 1 do
      s := !s -. (l.(i).(j) *. x.(j))
    done;
    x.(i) <- !s /. l.(i).(i)
  done;
  x

let solve_upper_triangular u b =
  let n = Array.length u in
  let x = Vec.create n in
  for i = n - 1 downto 0 do
    let s = ref b.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (u.(i).(j) *. x.(j))
    done;
    x.(i) <- !s /. u.(i).(i)
  done;
  x


let equal_eps eps a b =
  let ra, ca = dims a and rb, cb = dims b in
  ra = rb && ca = cb && Array.for_all2 (Vec.equal_eps eps) a b

let pp fmt m =
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Vec.pp)
    (rows m)
