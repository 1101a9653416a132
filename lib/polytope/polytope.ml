type t = { dim : int; a : Mat.t; b : Vec.t; flat : float array }

(* [flat] is the row-major copy of [a] every hot path runs on: one
   cache-friendly array instead of an array of row pointers.  It is
   rebuilt by [create], the single internal constructor, so it can
   never go stale. *)

let flatten dim a =
  let m = Array.length a in
  let f = Array.make (m * dim) 0.0 in
  for i = 0 to m - 1 do
    Array.blit a.(i) 0 f (i * dim) dim
  done;
  f

let create dim a b = { dim; a; b; flat = flatten dim a }

let make ~dim a b =
  let m, d = Mat.dims a in
  if m <> Vec.dim b then invalid_arg "Polytope.make: row count mismatch";
  if m > 0 && d <> dim then invalid_arg "Polytope.make: dimension mismatch";
  create dim (Mat.copy a) (Vec.copy b)

let of_tuple ~dim tuple =
  let rows =
    List.concat_map
      (fun (atom : Atom.t) ->
        match atom.op with
        | Atom.Le | Atom.Lt -> [ Atom.to_halfspace dim atom ]
        | Atom.Eq ->
            let w, c = Term.to_float_row dim atom.term in
            [ (w, -.c); (Vec.neg w, c) ])
      tuple
  in
  create dim (Array.of_list (List.map fst rows)) (Array.of_list (List.map snd rows))

let to_tuple t =
  Array.to_list
    (Array.mapi
       (fun i row ->
         let term = ref (Term.const (Rational.neg (Rational.of_float t.b.(i)))) in
         Array.iteri (fun j c -> term := Term.add !term (Term.monomial (Rational.of_float c) j)) row;
         Atom.make !term Atom.Le)
       t.a)

let box lo hi =
  let d = Vec.dim lo in
  let a = Array.init (2 * d) (fun i -> if i < d then Vec.basis d i else Vec.neg (Vec.basis d (i - d))) in
  let b = Array.init (2 * d) (fun i -> if i < d then hi.(i) else -.lo.(i - d)) in
  create d a b

let unit_cube d = box (Vec.create d) (Array.make d 1.0)
let cube d r = box (Array.make d (-.r)) (Array.make d r)

let simplex d =
  let a = Array.init (d + 1) (fun i -> if i < d then Vec.neg (Vec.basis d i) else Array.make d 1.0) in
  let b = Array.init (d + 1) (fun i -> if i < d then 0.0 else 1.0) in
  create d a b

let cross_polytope d r =
  let rec signs i acc = if i = d then [ acc ] else signs (i + 1) (1.0 :: acc) @ signs (i + 1) (-1.0 :: acc) in
  let rows = List.map (fun s -> Vec.of_list (List.rev s)) (signs 0 []) in
  create d (Array.of_list rows) (Array.make (1 lsl d) r)

let dim t = t.dim
let num_constraints t = Array.length t.b

(* ⟨a_i, v⟩ straight off the flat rows; the shared product kernel of
   [violation], [mem], [line_intersection] and the incremental cursor.
   Caller guarantees [Array.length v = t.dim] and [i] in range. *)
let[@inline] row_dot t i v =
  let d = t.dim in
  let flat = t.flat in
  let base = i * d in
  (* Two accumulators so consecutive fused multiply-adds are not
     serialized on a single loop-carried dependency. *)
  let s0 = ref 0.0 and s1 = ref 0.0 in
  let j = ref 0 in
  while !j + 1 < d do
    s0 := !s0 +. (Array.unsafe_get flat (base + !j) *. Array.unsafe_get v !j);
    s1 := !s1 +. (Array.unsafe_get flat (base + !j + 1) *. Array.unsafe_get v (!j + 1));
    j := !j + 2
  done;
  if !j < d then s0 := !s0 +. (Array.unsafe_get flat (base + !j) *. Array.unsafe_get v !j);
  !s0 +. !s1

(* [row_dot] against a vector stored at [off] inside a larger flat
   array (a chain's slice of a structure-of-arrays block).  Identical
   accumulation order, so results are bit-identical to [row_dot] on a
   copied-out vector. *)
let[@inline] row_dot_off t i v off =
  let d = t.dim in
  let flat = t.flat in
  let base = i * d in
  let s0 = ref 0.0 and s1 = ref 0.0 in
  let j = ref 0 in
  while !j + 1 < d do
    s0 := !s0 +. (Array.unsafe_get flat (base + !j) *. Array.unsafe_get v (off + !j));
    s1 := !s1 +. (Array.unsafe_get flat (base + !j + 1) *. Array.unsafe_get v (off + !j + 1));
    j := !j + 2
  done;
  if !j < d then
    s0 := !s0 +. (Array.unsafe_get flat (base + !j) *. Array.unsafe_get v (off + !j));
  !s0 +. !s1

let[@inline] check_point t x =
  if Vec.dim x <> t.dim then invalid_arg "Polytope: dimension mismatch"

let violation t x =
  let m = Array.length t.b in
  if m = 0 then 0.0
  else begin
    check_point t x;
    let worst = ref neg_infinity in
    for i = 0 to m - 1 do
      let v = row_dot t i x -. Array.unsafe_get t.b i in
      if v > !worst then worst := v
    done;
    !worst
  end

let mem ?(slack = 0.0) t x = violation t x <= slack

let add_halfspace t w c =
  create t.dim (Array.append t.a [| Vec.copy w |]) (Array.append t.b [| c |])

let inter p q =
  if p.dim <> q.dim then invalid_arg "Polytope.inter: dimension mismatch";
  create p.dim (Array.append p.a q.a) (Array.append p.b q.b)

let transform f t =
  (* y = A_f x + b_f  ⇒  x = A_f⁻¹ (y − b_f); a_i·x <= b_i becomes
     (a_i A_f⁻¹)·y <= b_i + (a_i A_f⁻¹)·b_f. *)
  let inv = (f : Affine.t).inv_mat in
  let a' = Array.map (fun row -> Mat.mul_vec (Mat.transpose inv) row) t.a in
  let b' = Array.mapi (fun i row' -> t.b.(i) +. Vec.dot row' f.offset) a' in
  create t.dim a' b'

let translate v t = transform (Affine.translation v) t

let chebyshev t = Scdb_lp.Lp.chebyshev ~a:t.a ~b:t.b

let bounding_box t =
  let d = t.dim in
  let lo = Vec.create d and hi = Vec.create d in
  let ok = ref true in
  for i = 0 to d - 1 do
    if !ok then begin
      match
        ( Scdb_lp.Lp.bound ~a:t.a ~b:t.b ~dir:(Vec.basis d i),
          Scdb_lp.Lp.bound ~a:t.a ~b:t.b ~dir:(Vec.neg (Vec.basis d i)) )
      with
      | Some up, Some down ->
          hi.(i) <- up;
          lo.(i) <- -.down
      | _ -> ok := false
    end
  done;
  if !ok then Some (lo, hi) else None

let is_empty t = Option.is_none (Scdb_lp.Lp.feasible_point ~a:t.a ~b:t.b)

let is_bounded t = is_empty t || Option.is_some (bounding_box t)

let sandwich t =
  match chebyshev t with
  | None -> None
  | Some (centre, r_inf) -> (
      match bounding_box t with
      | None -> None
      | Some (lo, hi) ->
          (* Enclosing radius: farthest box corner from the centre. *)
          let r_sup = ref 0.0 in
          for i = 0 to t.dim - 1 do
            let e = Float.max (Float.abs (hi.(i) -. centre.(i))) (Float.abs (centre.(i) -. lo.(i))) in
            r_sup := !r_sup +. (e *. e)
          done;
          Some (centre, r_inf, sqrt !r_sup))

let line_intersection_into t x dir range =
  (* a_i·(x + s·dir) <= b_i  ⇔  s·(a_i·dir) <= b_i − a_i·x. *)
  check_point t x;
  check_point t dir;
  if Array.length range < 2 then invalid_arg "Polytope.line_intersection_into: range too short";
  let m = Array.length t.b in
  let tmin = ref neg_infinity and tmax = ref infinity in
  for i = 0 to m - 1 do
    let denom = row_dot t i dir in
    let slack = Array.unsafe_get t.b i -. row_dot t i x in
    if Float.abs denom < 1e-14 then begin
      if slack < 0.0 then begin
        tmin := infinity;
        tmax := neg_infinity
      end
    end
    else if denom > 0.0 then tmax := Float.min !tmax (slack /. denom)
    else tmin := Float.max !tmin (slack /. denom)
  done;
  Array.unsafe_set range 0 !tmin;
  Array.unsafe_set range 1 !tmax;
  not (!tmin > !tmax)

let line_intersection t x dir =
  let range = [| 0.0; 0.0 |] in
  if line_intersection_into t x dir range then Some (range.(0), range.(1)) else None

module Kernel = struct
  type cursor = {
    poly : t;
    x : float array; (* current position *)
    ax : float array; (* cached ⟨a_i, x⟩ per row — the incremental invariant *)
    ad : float array; (* scratch: per-row products of the latest chord/move *)
    range : float array; (* [| lo; hi |] of the latest chord (flat, so writes don't box) *)
    bounds : float array; (* chord-bound scratch: hi (num, den), lo (num, den) negated *)
    mutable since_refresh : int;
  }

  (* Rounding drift of the [ax] cache grows with the number of
     incremental updates; recomputing every so often keeps it at the
     level of a single fresh evaluation without changing the asymptotic
     step cost. *)
  let refresh_interval = 256

  let refresh c =
    let m = Array.length c.poly.b in
    for i = 0 to m - 1 do
      Array.unsafe_set c.ax i (row_dot c.poly i c.x)
    done;
    c.since_refresh <- 0

  let make poly x =
    check_point poly x;
    let m = Array.length poly.b in
    let c =
      {
        poly;
        x = Vec.copy x;
        ax = Array.make m 0.0;
        ad = Array.make m 0.0;
        range = Array.make 2 0.0;
        bounds = Array.make 4 0.0;
        since_refresh = 0;
      }
    in
    refresh c;
    c

  let pos c = Vec.copy c.x
  let products c = c.ax

  let violation c =
    let m = Array.length c.poly.b in
    if m = 0 then 0.0
    else begin
      let worst = ref neg_infinity in
      for i = 0 to m - 1 do
        let v = Array.unsafe_get c.ax i -. Array.unsafe_get c.poly.b i in
        if v > !worst then worst := v
      done;
      !worst
    end

  let inside ?(slack = 0.0) c = violation c <= slack

  let chord c dir =
    check_point c.poly dir;
    let poly = c.poly in
    let m = Array.length poly.b in
    let b = poly.b and ax = c.ax and ad = c.ad in
    (* Track each endpoint as a (num, den) pair — den > 0 for the upper
       bound, den < 0 for the lower — and compare candidates by
       cross-multiplication, so the loop performs no division at all;
       the two winning ratios are divided once at the end.  Both
       comparisons multiply through by a positive quantity
       (den·candidate_den), so they order exactly like the quotients.
       (Products of a slack and a direction product stay far from the
       float range for any realistically scaled polytope; callers with
       ~1e150 coefficients should use [line_intersection].)

       The lower bound is stored with numerator and denominator negated
       (slots 2–3): both negations are exact, so every compared product
       and the final quotient are bit-identical to the direct form —
       but both bound updates become the same "<" test, and the
       unpredictable sign of [denom] moves out of the branch and into
       the slot index. *)
    let bounds = c.bounds in
    Array.unsafe_set bounds 0 infinity;
    Array.unsafe_set bounds 1 1.0;
    Array.unsafe_set bounds 2 neg_infinity;
    Array.unsafe_set bounds 3 1.0;
    for i = 0 to m - 1 do
      let denom = row_dot poly i dir in
      Array.unsafe_set ad i denom;
      let slack = Array.unsafe_get b i -. Array.unsafe_get ax i in
      if Float.abs denom < 1e-14 then begin
        if slack < 0.0 then begin
          (* Line parallel to a violated constraint: empty chord, and no
             later row can reopen it (the updates below never fire
             against ∓infinity bounds). *)
          Array.unsafe_set bounds 0 neg_infinity;
          Array.unsafe_set bounds 1 1.0;
          Array.unsafe_set bounds 2 infinity;
          Array.unsafe_set bounds 3 1.0
        end
      end
      else begin
        let o = 2 * Bool.to_int (denom < 0.0) in
        if slack *. Array.unsafe_get bounds (o + 1) < Array.unsafe_get bounds o *. denom
        then
          if denom < 0.0 then begin
            Array.unsafe_set bounds o (-.slack);
            Array.unsafe_set bounds (o + 1) (-.denom)
          end
          else begin
            Array.unsafe_set bounds o slack;
            Array.unsafe_set bounds (o + 1) denom
          end
      end
    done;
    let tmin = Array.unsafe_get bounds 2 /. Array.unsafe_get bounds 3
    and tmax = Array.unsafe_get bounds 0 /. Array.unsafe_get bounds 1 in
    Array.unsafe_set c.range 0 tmin;
    Array.unsafe_set c.range 1 tmax;
    tmin <= tmax

  let lo c = c.range.(0)
  let hi c = c.range.(1)

  let advance c dir s =
    let d = c.poly.dim in
    for j = 0 to d - 1 do
      Array.unsafe_set c.x j (Array.unsafe_get c.x j +. (s *. Array.unsafe_get dir j))
    done;
    let m = Array.length c.poly.b in
    for i = 0 to m - 1 do
      Array.unsafe_set c.ax i (Array.unsafe_get c.ax i +. (s *. Array.unsafe_get c.ad i))
    done;
    c.since_refresh <- c.since_refresh + 1;
    if c.since_refresh >= refresh_interval then refresh c

  (* ---------------------------------------------------------------- *)
  (* Batched multi-chain state (structure of arrays)                   *)
  (* ---------------------------------------------------------------- *)

  (* K chains share one pass over the flat constraint matrix: each row
     is loaded once and dotted against all K directions (coordinate-
     major, so the inner chain loop is contiguous), amortizing the
     matrix traffic that dominates the single-chain chord.  Per-chain
     arithmetic — accumulation order, cross-multiplied comparisons,
     cache refresh cadence — replicates [cursor] exactly, so a chain
     stepped through [Batch] is bit-identical to the same chain stepped
     through the incremental cursor.  This flat layout is the contract
     the plan→kernel compiler (ROADMAP item 3) will target. *)
  module Batch = struct
    type batch = {
      poly : t;
      k : int; (* number of chains *)
      x : float array; (* chain-major k×d positions *)
      ax : float array; (* chain-major k×m cached ⟨a_i, x⟩ *)
      ad : float array; (* chain-major k×m products of the latest directions *)
      dir : float array; (* chain-major k×d per-chain directions *)
      (* Cross-multiplied chord bounds, two slots per chain: slot 2c
         holds the upper bound as the cursor stores it, slot 2c+1 holds
         the lower bound with numerator and denominator NEGATED.  Both
         negations are exact, so slot values, comparisons and the final
         divisions reproduce the cursor bit-for-bit — and the flipped
         sign makes both updates the same "num·den' < num'·den" test,
         keeping the unpredictable denominator-sign branch out of the
         hot row loop (the slot index absorbs it). *)
      bnum : float array; (* 2k-wide bound numerators *)
      bden : float array; (* 2k-wide bound denominators *)
      lo : float array; (* k-wide latest chord endpoints *)
      hi : float array;
      viol : float array; (* k-wide worst violation of the latest proposal *)
      since_refresh : int array;
    }

    let refresh_chain b c =
      let m = Array.length b.poly.b in
      let off = c * m in
      let xo = c * b.poly.dim in
      for i = 0 to m - 1 do
        Array.unsafe_set b.ax (off + i) (row_dot_off b.poly i b.x xo)
      done;
      b.since_refresh.(c) <- 0

    let make poly starts =
      let k = Array.length starts in
      if k < 1 then invalid_arg "Polytope.Kernel.Batch.make: no chains";
      Array.iter (check_point poly) starts;
      let d = poly.dim in
      let m = Array.length poly.b in
      let b =
        {
          poly;
          k;
          x = Array.make (k * d) 0.0;
          ax = Array.make (Stdlib.max 1 (k * m)) 0.0;
          ad = Array.make (Stdlib.max 1 (k * m)) 0.0;
          dir = Array.make (k * d) 0.0;
          bnum = Array.make (2 * k) 0.0;
          bden = Array.make (2 * k) 0.0;
          lo = Array.make k 0.0;
          hi = Array.make k 0.0;
          viol = Array.make k 0.0;
          since_refresh = Array.make k 0;
        }
      in
      Array.iteri (fun c start -> Array.blit start 0 b.x (c * d) d) starts;
      for c = 0 to k - 1 do
        refresh_chain b c
      done;
      b

    let chains b = b.k
    let dim b = b.poly.dim

    let positions b = b.x
    let pos b c = Array.sub b.x (c * b.poly.dim) b.poly.dim
    let directions b = b.dir

    let set_dir b c dir =
      let d = b.poly.dim in
      if Array.length dir <> d then invalid_arg "Polytope.Kernel.Batch.set_dir";
      Array.blit dir 0 b.dir (c * d) d

    let set_pos b c start =
      let d = b.poly.dim in
      if Array.length start <> d then invalid_arg "Polytope.Kernel.Batch.set_pos";
      Array.blit start 0 b.x (c * d) d;
      refresh_chain b c

    (* Both shared passes below ([chord_all], [propose_all]) open-code
       the same row × K-directions product: chains are processed in
       register blocks of four, so each matrix element is loaded once
       per block and all eight dot-product accumulators (two per chain,
       paired exactly like [row_dot]) live in registers instead of
       bouncing through scratch arrays.  Left-over chains (k mod 4) run
       one at a time with the cursor's own two-accumulator loop.  The
       loops are duplicated rather than abstracted into a higher-order
       function because a closure capturing the per-row continuation
       allocates on every call — and these are the allocation-free hot
       paths. *)

    (* Per-chain chord-bound update for [chord_all]; top-level (not a
       local closure — that would allocate per call) and [@inline
       always] so the unrolled epilogues feed it register values with
       no reload of the just-stored [A·dir] entry. *)
    let[@inline always] update_bound bnum bden c denom slack =
      if Float.abs denom < 1e-14 then begin
        if slack < 0.0 then begin
          (* Line parallel to a violated constraint: empty chord (same
             sentinel values as the single-chain cursor, lo slot
             negated). *)
          Array.unsafe_set bnum (2 * c) neg_infinity;
          Array.unsafe_set bden (2 * c) 1.0;
          Array.unsafe_set bnum ((2 * c) + 1) infinity;
          Array.unsafe_set bden ((2 * c) + 1) 1.0
        end
      end
      else begin
        let o = (2 * c) + Bool.to_int (denom < 0.0) in
        if slack *. Array.unsafe_get bden o < Array.unsafe_get bnum o *. denom
        then
          if denom < 0.0 then begin
            Array.unsafe_set bnum o (-.slack);
            Array.unsafe_set bden o (-.denom)
          end
          else begin
            Array.unsafe_set bnum o slack;
            Array.unsafe_set bden o denom
          end
      end

    let chord_all b =
      let poly = b.poly in
      let d = poly.dim and m = Array.length poly.b in
      let k = b.k in
      let flat = poly.flat and bvec = poly.b in
      let dir = b.dir in
      let ad = b.ad and ax = b.ax in
      let bnum = b.bnum and bden = b.bden in
      (* Cursor init hi = (∞, 1), lo = (∞, -1); the lo slot is stored
         negated: (-∞, 1). *)
      for c = 0 to k - 1 do
        Array.unsafe_set bnum (2 * c) infinity;
        Array.unsafe_set bden (2 * c) 1.0;
        Array.unsafe_set bnum ((2 * c) + 1) neg_infinity;
        Array.unsafe_set bden ((2 * c) + 1) 1.0
      done;
      let c0 = ref 0 in
      while !c0 + 3 < k do
        let da = !c0 * d in
        let db = da + d and dc = da + (2 * d) and dd = da + (3 * d) in
        let ma = !c0 * m in
        let mb = ma + m and mc = ma + (2 * m) and md = ma + (3 * m) in
        for i = 0 to m - 1 do
          let base = i * d in
          let s0a = ref 0.0 and s1a = ref 0.0 in
          let s0b = ref 0.0 and s1b = ref 0.0 in
          let s0c = ref 0.0 and s1c = ref 0.0 in
          let s0d = ref 0.0 and s1d = ref 0.0 in
          let j = ref 0 in
          while !j + 1 < d do
            let r0 = Array.unsafe_get flat (base + !j) in
            let r1 = Array.unsafe_get flat (base + !j + 1) in
            s0a := !s0a +. (r0 *. Array.unsafe_get dir (da + !j));
            s1a := !s1a +. (r1 *. Array.unsafe_get dir (da + !j + 1));
            s0b := !s0b +. (r0 *. Array.unsafe_get dir (db + !j));
            s1b := !s1b +. (r1 *. Array.unsafe_get dir (db + !j + 1));
            s0c := !s0c +. (r0 *. Array.unsafe_get dir (dc + !j));
            s1c := !s1c +. (r1 *. Array.unsafe_get dir (dc + !j + 1));
            s0d := !s0d +. (r0 *. Array.unsafe_get dir (dd + !j));
            s1d := !s1d +. (r1 *. Array.unsafe_get dir (dd + !j + 1));
            j := !j + 2
          done;
          if !j < d then begin
            let r0 = Array.unsafe_get flat (base + !j) in
            s0a := !s0a +. (r0 *. Array.unsafe_get dir (da + !j));
            s0b := !s0b +. (r0 *. Array.unsafe_get dir (db + !j));
            s0c := !s0c +. (r0 *. Array.unsafe_get dir (dc + !j));
            s0d := !s0d +. (r0 *. Array.unsafe_get dir (dd + !j))
          end;
          let sa = !s0a +. !s1a and sb = !s0b +. !s1b in
          let sc = !s0c +. !s1c and sd = !s0d +. !s1d in
          Array.unsafe_set ad (ma + i) sa;
          Array.unsafe_set ad (mb + i) sb;
          Array.unsafe_set ad (mc + i) sc;
          Array.unsafe_set ad (md + i) sd;
          let bi = Array.unsafe_get bvec i in
          update_bound bnum bden !c0 sa (bi -. Array.unsafe_get ax (ma + i));
          update_bound bnum bden (!c0 + 1) sb (bi -. Array.unsafe_get ax (mb + i));
          update_bound bnum bden (!c0 + 2) sc (bi -. Array.unsafe_get ax (mc + i));
          update_bound bnum bden (!c0 + 3) sd (bi -. Array.unsafe_get ax (md + i))
        done;
        c0 := !c0 + 4
      done;
      while !c0 < k do
        let c = !c0 in
        let dc = c * d in
        for i = 0 to m - 1 do
          let base = i * d in
          let s0 = ref 0.0 and s1 = ref 0.0 in
          let j = ref 0 in
          while !j + 1 < d do
            s0 := !s0 +. (Array.unsafe_get flat (base + !j) *. Array.unsafe_get dir (dc + !j));
            s1 :=
              !s1
              +. (Array.unsafe_get flat (base + !j + 1) *. Array.unsafe_get dir (dc + !j + 1));
            j := !j + 2
          done;
          if !j < d then
            s0 := !s0 +. (Array.unsafe_get flat (base + !j) *. Array.unsafe_get dir (dc + !j));
          let denom = !s0 +. !s1 in
          Array.unsafe_set ad ((c * m) + i) denom;
          let bi = Array.unsafe_get bvec i in
          update_bound bnum bden c denom (bi -. Array.unsafe_get ax ((c * m) + i))
        done;
        incr c0
      done;
      (* lo = (-num)/(-den) of the negated slot — bit-identical to the
         cursor's lo_num/lo_den since both negations flip the sign of
         an exact quotient twice. *)
      for c = 0 to k - 1 do
        Array.unsafe_set b.lo c
          (Array.unsafe_get bnum ((2 * c) + 1) /. Array.unsafe_get bden ((2 * c) + 1));
        Array.unsafe_set b.hi c
          (Array.unsafe_get bnum (2 * c) /. Array.unsafe_get bden (2 * c))
      done

    let lo b c = b.lo.(c)
    let hi b c = b.hi.(c)
    let lows b = b.lo
    let highs b = b.hi

    let advance b c s =
      let d = b.poly.dim in
      let m = Array.length b.poly.b in
      let xo = c * d and ao = c * m in
      for j = 0 to d - 1 do
        Array.unsafe_set b.x (xo + j)
          (Array.unsafe_get b.x (xo + j) +. (s *. Array.unsafe_get b.dir (xo + j)))
      done;
      for i = 0 to m - 1 do
        Array.unsafe_set b.ax (ao + i)
          (Array.unsafe_get b.ax (ao + i) +. (s *. Array.unsafe_get b.ad (ao + i)))
      done;
      b.since_refresh.(c) <- b.since_refresh.(c) + 1;
      if b.since_refresh.(c) >= refresh_interval then refresh_chain b c

    (* Ball-walk support: with per-chain displacement vectors stored
       via [set_dir], compute every chain's worst constraint violation
       at x + delta in one shared pass; accepted chains then [advance]
       with s = 1. *)
    let propose_all b =
      let poly = b.poly in
      let d = poly.dim and m = Array.length poly.b in
      let k = b.k in
      let flat = poly.flat and bvec = poly.b in
      let dir = b.dir in
      let ad = b.ad and ax = b.ax and viol = b.viol in
      for c = 0 to k - 1 do
        Array.unsafe_set viol c 0.0
      done;
      let c0 = ref 0 in
      while !c0 + 3 < k do
        let da = !c0 * d in
        let db = da + d and dc = da + (2 * d) and dd = da + (3 * d) in
        for i = 0 to m - 1 do
          let base = i * d in
          let s0a = ref 0.0 and s1a = ref 0.0 in
          let s0b = ref 0.0 and s1b = ref 0.0 in
          let s0c = ref 0.0 and s1c = ref 0.0 in
          let s0d = ref 0.0 and s1d = ref 0.0 in
          let j = ref 0 in
          while !j + 1 < d do
            let r0 = Array.unsafe_get flat (base + !j) in
            let r1 = Array.unsafe_get flat (base + !j + 1) in
            s0a := !s0a +. (r0 *. Array.unsafe_get dir (da + !j));
            s1a := !s1a +. (r1 *. Array.unsafe_get dir (da + !j + 1));
            s0b := !s0b +. (r0 *. Array.unsafe_get dir (db + !j));
            s1b := !s1b +. (r1 *. Array.unsafe_get dir (db + !j + 1));
            s0c := !s0c +. (r0 *. Array.unsafe_get dir (dc + !j));
            s1c := !s1c +. (r1 *. Array.unsafe_get dir (dc + !j + 1));
            s0d := !s0d +. (r0 *. Array.unsafe_get dir (dd + !j));
            s1d := !s1d +. (r1 *. Array.unsafe_get dir (dd + !j + 1));
            j := !j + 2
          done;
          if !j < d then begin
            let r0 = Array.unsafe_get flat (base + !j) in
            s0a := !s0a +. (r0 *. Array.unsafe_get dir (da + !j));
            s0b := !s0b +. (r0 *. Array.unsafe_get dir (db + !j));
            s0c := !s0c +. (r0 *. Array.unsafe_get dir (dc + !j));
            s0d := !s0d +. (r0 *. Array.unsafe_get dir (dd + !j))
          end;
          Array.unsafe_set ad ((!c0 * m) + i) (!s0a +. !s1a);
          Array.unsafe_set ad (((!c0 + 1) * m) + i) (!s0b +. !s1b);
          Array.unsafe_set ad (((!c0 + 2) * m) + i) (!s0c +. !s1c);
          Array.unsafe_set ad (((!c0 + 3) * m) + i) (!s0d +. !s1d);
          let bi = Array.unsafe_get bvec i in
          for c = !c0 to !c0 + 3 do
            let v =
              Array.unsafe_get ax ((c * m) + i) +. Array.unsafe_get ad ((c * m) + i) -. bi
            in
            if v > Array.unsafe_get viol c then Array.unsafe_set viol c v
          done
        done;
        c0 := !c0 + 4
      done;
      while !c0 < k do
        let c = !c0 in
        let dc = c * d in
        for i = 0 to m - 1 do
          let base = i * d in
          let s0 = ref 0.0 and s1 = ref 0.0 in
          let j = ref 0 in
          while !j + 1 < d do
            s0 := !s0 +. (Array.unsafe_get flat (base + !j) *. Array.unsafe_get dir (dc + !j));
            s1 :=
              !s1
              +. (Array.unsafe_get flat (base + !j + 1) *. Array.unsafe_get dir (dc + !j + 1));
            j := !j + 2
          done;
          if !j < d then
            s0 := !s0 +. (Array.unsafe_get flat (base + !j) *. Array.unsafe_get dir (dc + !j));
          let delta = !s0 +. !s1 in
          Array.unsafe_set ad ((c * m) + i) delta;
          let v = Array.unsafe_get ax ((c * m) + i) +. delta -. Array.unsafe_get bvec i in
          if v > Array.unsafe_get viol c then Array.unsafe_set viol c v
        done;
        incr c0
      done

    let violation b c = b.viol.(c)
    let violations b = b.viol

    let try_set_coord ?(slack = 0.0) b c j v =
      let poly = b.poly in
      let d = poly.dim in
      if j < 0 || j >= d then
        invalid_arg "Polytope.Kernel.Batch.try_set_coord: coordinate out of range";
      let xo = c * d in
      let dc = v -. Array.unsafe_get b.x (xo + j) in
      let m = Array.length poly.b in
      let ao = c * m in
      let flat = poly.flat in
      let ok = ref true in
      let i = ref 0 in
      while !ok && !i < m do
        let p = dc *. Array.unsafe_get flat ((!i * d) + j) in
        Array.unsafe_set b.ad (ao + !i) p;
        if Array.unsafe_get b.ax (ao + !i) +. p -. Array.unsafe_get poly.b !i > slack then
          ok := false;
        incr i
      done;
      if !ok then begin
        for i = 0 to m - 1 do
          Array.unsafe_set b.ax (ao + i)
            (Array.unsafe_get b.ax (ao + i) +. Array.unsafe_get b.ad (ao + i))
        done;
        Array.unsafe_set b.x (xo + j) v;
        b.since_refresh.(c) <- b.since_refresh.(c) + 1;
        if b.since_refresh.(c) >= refresh_interval then refresh_chain b c
      end;
      !ok
  end

  let try_set_coord ?(slack = 0.0) c j v =
    let poly = c.poly in
    let d = poly.dim in
    if j < 0 || j >= d then invalid_arg "Polytope.Kernel.try_set_coord: coordinate out of range";
    let dc = v -. Array.unsafe_get c.x j in
    let m = Array.length poly.b in
    let flat = poly.flat in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < m do
      let p = dc *. Array.unsafe_get flat ((!i * d) + j) in
      Array.unsafe_set c.ad !i p;
      if Array.unsafe_get c.ax !i +. p -. Array.unsafe_get poly.b !i > slack then ok := false;
      incr i
    done;
    if !ok then begin
      for i = 0 to m - 1 do
        Array.unsafe_set c.ax i (Array.unsafe_get c.ax i +. Array.unsafe_get c.ad i)
      done;
      Array.unsafe_set c.x j v;
      c.since_refresh <- c.since_refresh + 1;
      if c.since_refresh >= refresh_interval then refresh c
    end;
    !ok
end

let pp fmt t =
  Format.fprintf fmt "@[<v>polytope in R^%d:@ " t.dim;
  Array.iteri (fun i row -> Format.fprintf fmt "%a . x <= %g@ " Vec.pp row t.b.(i)) t.a;
  Format.fprintf fmt "@]"
