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
   [violation], [mem], [line_intersection] and the one-chain walk
   kernel.
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

let line_intersection t x dir =
  (* a_i·(x + s·dir) <= b_i  ⇔  s·(a_i·dir) <= b_i − a_i·x. *)
  check_point t x;
  check_point t dir;
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
  if !tmin > !tmax then None else Some (!tmin, !tmax)

module Kernel = struct
  (* Rounding drift of the [A·x] cache grows with the number of
     incremental updates; recomputing every so often keeps it at the
     level of a single fresh evaluation without changing the asymptotic
     step cost. *)
  let refresh_interval = 256

  (* K chains share one pass over the flat constraint matrix: each row
     is loaded once and dotted against all K directions (coordinate-
     major, so the inner chain loop is contiguous), amortizing the
     matrix traffic that dominates the chord.  Per-chain arithmetic —
     accumulation order, cross-multiplied comparisons, cache refresh
     cadence — does not depend on K or on the chain's block, so a chain
     stepped in a batch of K is bit-identical to the same chain stepped
     alone (K = 1, the walk every single-chain sampler runs). *)
  module Batch = struct
    type batch = {
      poly : t;
      k : int; (* number of chains *)
      x : float array; (* chain-major k×d positions *)
      ax : float array; (* chain-major k×m cached ⟨a_i, x⟩ *)
      ad : float array; (* chain-major k×m products of the latest directions *)
      dir : float array; (* chain-major k×d per-chain directions *)
      (* Cross-multiplied chord bounds, two slots per chain: each
         endpoint is tracked as a (num, den) pair and candidates are
         compared by cross-multiplication, so the row loop performs no
         division; the two winning ratios are divided once at the end.
         Slot 2c holds the upper bound (den > 0), slot 2c+1 the lower
         bound with numerator and denominator NEGATED.  Both negations
         are exact, so every compared product and the final quotient
         are bit-identical to the direct form — and the flipped sign
         makes both updates the same "num·den' < num'·den" test,
         keeping the unpredictable denominator-sign branch out of the
         hot row loop (the slot index absorbs it).  Products of a slack
         and a direction product stay far from the float range for any
         realistically scaled polytope; callers with ~1e150
         coefficients should use [line_intersection]. *)
      bnum : float array; (* 2k-wide bound numerators *)
      bden : float array; (* 2k-wide bound denominators *)
      lo : float array; (* k-wide latest chord endpoints *)
      hi : float array;
      viol : float array; (* k-wide worst violation of the latest proposal *)
      since_refresh : int array;
    }

    (* One integer compare on entry to every per-chain call, before
       any unchecked write into the chain-major blocks. *)
    let[@inline] check_chain b c name = if c < 0 || c >= b.k then invalid_arg name

    let refresh_chain b c =
      check_chain b c "Polytope.Kernel.Batch.refresh_chain: chain out of range";
      let m = Array.length b.poly.b in
      let off = c * m in
      let xo = c * b.poly.dim in
      for i = 0 to m - 1 do
        Array.unsafe_set b.ax (off + i) (row_dot_off b.poly i b.x xo)
      done;
      b.since_refresh.(c) <- 0

    (* One more incremental update of chain [c]'s cache; every
       [refresh_interval]-th recomputes it exactly. *)
    let[@inline] count_update b c =
      let n = Array.unsafe_get b.since_refresh c + 1 in
      Array.unsafe_set b.since_refresh c n;
      if n >= refresh_interval then refresh_chain b c

    let make poly starts =
      let k = Array.length starts in
      if k < 1 then invalid_arg "Polytope.Kernel.Batch.make: no chains";
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
      for c = 0 to k - 1 do
        let start = Array.unsafe_get starts c in
        check_point poly start;
        Array.blit start 0 b.x (c * d) d;
        refresh_chain b c
      done;
      b

    let chains b = b.k
    let dim b = b.poly.dim

    let positions b = b.x
    let pos b c =
      check_chain b c "Polytope.Kernel.Batch.pos: chain out of range";
      Array.sub b.x (c * b.poly.dim) b.poly.dim

    let directions b = b.dir

    let set_dir b c dir =
      check_chain b c "Polytope.Kernel.Batch.set_dir: chain out of range";
      let d = b.poly.dim in
      if Array.length dir <> d then invalid_arg "Polytope.Kernel.Batch.set_dir";
      Array.blit dir 0 b.dir (c * d) d

    let set_pos b c start =
      check_chain b c "Polytope.Kernel.Batch.set_pos: chain out of range";
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
       one at a time with [row_dot]'s two-accumulator loop.  The
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
          (* Line parallel to a violated constraint: empty chord, lo
             slot negated; no later row can reopen it (the updates never
             fire against ∓infinity bounds). *)
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

    (* One chain: one row loop with the chain offsets fixed at 0, no
       register-block setup and no per-chain slice arithmetic.  Same
       products, bounds and quotients as chain 0 of [chord_blocks]. *)
    let chord_one b =
      let poly = b.poly in
      let m = Array.length poly.b in
      let bvec = poly.b and dir = b.dir and ad = b.ad and ax = b.ax in
      let bnum = b.bnum and bden = b.bden in
      Array.unsafe_set bnum 0 infinity;
      Array.unsafe_set bden 0 1.0;
      Array.unsafe_set bnum 1 neg_infinity;
      Array.unsafe_set bden 1 1.0;
      for i = 0 to m - 1 do
        let denom = row_dot poly i dir in
        Array.unsafe_set ad i denom;
        update_bound bnum bden 0 denom (Array.unsafe_get bvec i -. Array.unsafe_get ax i)
      done;
      Array.unsafe_set b.lo 0 (Array.unsafe_get bnum 1 /. Array.unsafe_get bden 1);
      Array.unsafe_set b.hi 0 (Array.unsafe_get bnum 0 /. Array.unsafe_get bden 0)

    let chord_blocks b =
      let poly = b.poly in
      let d = poly.dim and m = Array.length poly.b in
      let k = b.k in
      let flat = poly.flat and bvec = poly.b in
      let dir = b.dir in
      let ad = b.ad and ax = b.ax in
      let bnum = b.bnum and bden = b.bden in
      (* Bounds start at hi = (∞, 1) and lo = (∞, -1), the lo slot
         stored negated: (-∞, 1). *)
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
      (* lo = (-num)/(-den) of the negated slot — bit-identical to
         num/den since both negations flip the sign of an exact
         quotient twice. *)
      for c = 0 to k - 1 do
        Array.unsafe_set b.lo c
          (Array.unsafe_get bnum ((2 * c) + 1) /. Array.unsafe_get bden ((2 * c) + 1));
        Array.unsafe_set b.hi c
          (Array.unsafe_get bnum (2 * c) /. Array.unsafe_get bden (2 * c))
      done

    let chord_all b = if b.k = 1 then chord_one b else chord_blocks b

    let lo b c = b.lo.(c)
    let hi b c = b.hi.(c)
    let lows b = b.lo
    let highs b = b.hi

    (* [@inline]: a call would box [s], even from this module.  The
       blocks are bound once: inside a loop the compiler would reload
       each record field on every iteration. *)
    let[@inline] advance b c s =
      check_chain b c "Polytope.Kernel.Batch.advance: chain out of range";
      let d = b.poly.dim in
      let m = Array.length b.poly.b in
      let x = b.x and dir = b.dir and ax = b.ax and ad = b.ad in
      let xo = c * d and ao = c * m in
      for j = xo to xo + d - 1 do
        Array.unsafe_set x j (Array.unsafe_get x j +. (s *. Array.unsafe_get dir j))
      done;
      for i = ao to ao + m - 1 do
        Array.unsafe_set ax i (Array.unsafe_get ax i +. (s *. Array.unsafe_get ad i))
      done;
      count_update b c

    (* The volume estimator's phase walk, here so that every float of
       the step stays in this module: across modules the step, the
       chord bounds and the uniform draw would each be boxed. *)
    let hit_and_run_in_ball b rng ~radius ~steps =
      if b.k <> 1 then invalid_arg "Polytope.Kernel.Batch.hit_and_run_in_ball: one chain only";
      let d = b.poly.dim in
      let x = b.x and dir = b.dir and lo = b.lo and hi = b.hi in
      let u = [| 0.0 |] in
      let degenerate = ref 0 in
      for _ = 1 to steps do
        Scdb_rng.Rng.unit_vector_slice_fast rng dir 0 d;
        chord_all b;
        (* Clip to the ball in place: [dir] is a unit vector, so
           |x + t·dir|² ≤ r² is t² + 2ht + c ≤ 0 with h = ⟨x, dir⟩ and
           c = |x|² − r². *)
        let h = ref 0.0 and xx = ref 0.0 in
        for j = 0 to d - 1 do
          let xj = Array.unsafe_get x j in
          h := !h +. (xj *. Array.unsafe_get dir j);
          xx := !xx +. (xj *. xj)
        done;
        let disc = (!h *. !h) -. (!xx -. (radius *. radius)) in
        if disc >= 0.0 then begin
          let s = sqrt disc in
          let t0 = -. !h -. s and t1 = -. !h +. s in
          if t0 > Array.unsafe_get lo 0 then Array.unsafe_set lo 0 t0;
          if t1 < Array.unsafe_get hi 0 then Array.unsafe_set hi 0 t1
        end
        else Array.unsafe_set hi 0 neg_infinity;
        let tlo = Array.unsafe_get lo 0 and thi = Array.unsafe_get hi 0 in
        if thi > tlo && Float.is_finite tlo && Float.is_finite thi then begin
          Scdb_rng.Rng.float_into rng u 0;
          advance b 0 (tlo +. ((thi -. tlo) *. Array.unsafe_get u 0))
        end
        else incr degenerate
      done;
      !degenerate

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
      check_chain b c "Polytope.Kernel.Batch.try_set_coord: chain out of range";
      let poly = b.poly in
      let d = poly.dim in
      if j < 0 || j >= d then
        invalid_arg "Polytope.Kernel.Batch.try_set_coord: coordinate out of range";
      let x = b.x and ax = b.ax and ad = b.ad and flat = poly.flat and bvec = poly.b in
      let xo = c * d in
      let dc = v -. Array.unsafe_get x (xo + j) in
      let m = Array.length bvec in
      let ao = c * m in
      let ok = ref true in
      let i = ref 0 in
      while !ok && !i < m do
        let p = dc *. Array.unsafe_get flat ((!i * d) + j) in
        Array.unsafe_set ad (ao + !i) p;
        if Array.unsafe_get ax (ao + !i) +. p -. Array.unsafe_get bvec !i > slack then ok := false;
        incr i
      done;
      if !ok then begin
        for i = ao to ao + m - 1 do
          Array.unsafe_set ax i (Array.unsafe_get ax i +. Array.unsafe_get ad i)
        done;
        Array.unsafe_set x (xo + j) v;
        count_update b c
      end;
      !ok
  end
end

let pp fmt t =
  Format.fprintf fmt "@[<v>polytope in R^%d:@ " t.dim;
  Array.iteri (fun i row -> Format.fprintf fmt "%a . x <= %g@ " Vec.pp row t.b.(i)) t.a;
  Format.fprintf fmt "@]"
