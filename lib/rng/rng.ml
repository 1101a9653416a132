(* xoshiro256** 1.0 (Blackman & Vigna), seeded through splitmix64.

   The 4×64-bit state lives in a 32-byte [Bytes.t] rather than mutable
   [int64] record fields: stores into int64 fields re-box on every
   write (4–6 heap allocations per [bits64] call without flambda),
   while the bytes load/store primitives below work on unboxed values,
   so the generator core allocates only its boxed return.  The output
   stream is bit-identical to the record-based representation.

   Each generator carries a draw counter bumped once per raw [bits64]
   output, for the flight recorder.  The counter is a plain mutable
   [int] field — one unboxed store per draw, no allocation — so the
   stream position of a generator can be captured and compared during
   replay.

   Every walk draws its directions from one source, the ziggurat fills
   ([unit_vector_slice_fast] and friends), so a chain walks the same
   stream at any chain count.  The polar [gaussian] survives only behind the
   allocating [unit_vector]/[in_ball], which build seeded geometry
   whose coordinates are pinned. *)

type t = { state : Bytes.t; mutable draws : int }

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_splitmix state =
  let t = Bytes.create 32 in
  set64 t 0 (splitmix64 state);
  set64 t 8 (splitmix64 state);
  set64 t 16 (splitmix64 state);
  set64 t 24 (splitmix64 state);
  t

let create seed = { state = of_splitmix (ref (Int64.of_int seed)); draws = 0 }

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* [@inline always]: inlined callers keep the xoshiro state words in
   registers and skip the boxed [int64] return — the difference between
   an allocation per draw and none on the sampler hot paths. *)
let[@inline always] bits64 t =
  t.draws <- t.draws + 1;
  let t = t.state in
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  result

let split t =
  (* Derive a child state by hashing fresh output through splitmix64. *)
  { state = of_splitmix (ref (bits64 t)); draws = 0 }

let draw_count t = t.draws

let[@inline always] float t =
  (* Top 53 bits scaled to [0,1). *)
  let x = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float x *. 0x1p-53

let[@inline always] uniform t lo hi = lo +. ((hi -. lo) *. float t)

(* [float] delivered through a float array: a caller in another module
   then gets the draw without a boxed return. *)
let float_into t buf i = buf.(i) <- float t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  (* Rejection to avoid modulo bias. *)
  let mask = Int64.of_int max_int in
  let rec go () =
    let x = Int64.to_int (Int64.logand (bits64 t) mask) in
    let r = x mod bound in
    if x - r > max_int - bound + 1 then go () else r
  in
  go ()

let bool t = Int64.logand (bits64 t) 1L = 1L

(* Marsaglia polar method; discard the second deviate to keep the
   generator stateless beyond its stream position.  A loop with
   [@inline always] rather than a recursive closure, for the reason
   given at [gaussian_fast] below: inlined callers get the deviate
   unboxed.  Same draw order ([u] then [v]) and arithmetic as the
   recursive form, so the stream and every value are unchanged.  No
   walk draws on it: it serves the allocating [unit_vector]/[in_ball]
   behind seeded geometry. *)
let[@inline always] gaussian t =
  let res = ref 0.0 in
  let looping = ref true in
  while !looping do
    let u = uniform t (-1.0) 1.0 in
    let v = uniform t (-1.0) 1.0 in
    let s = (u *. u) +. (v *. v) in
    if not (s >= 1.0 || s = 0.0) then begin
      res := u *. sqrt (-2.0 *. log s /. s);
      looping := false
    end
  done;
  !res

(* Ziggurat gaussian (Doornik's ZIGNOR layout, 128 layers): the
   generator behind every walk's direction draws, at one chain or K.
   One raw [bits64] output covers layer index, sign and mantissa, and
   ~97.5% of draws resolve with a single table compare and one
   multiply — a fraction of the polar method's two uniforms, log and
   sqrt per deviate.  The stream use differs from [gaussian]
   (different draws per deviate): both are deterministic, but a walk
   replays only on the stream it was recorded on. *)

let zig_layers = 128
let zig_r = 3.442619855899
let zig_v = 9.91256303526217e-3

(* zig_x.(i) is the right edge of layer i (zig_x.(0) is the stretched
   base-layer edge accounting for the tail area); zig_ratio.(i) =
   zig_x.(i+1) / zig_x.(i) is the rectangular-acceptance threshold. *)
let zig_x = Array.make (zig_layers + 1) 0.0
let zig_ratio = Array.make zig_layers 0.0

let () =
  let f = ref (exp (-0.5 *. zig_r *. zig_r)) in
  zig_x.(0) <- zig_v /. !f;
  zig_x.(1) <- zig_r;
  zig_x.(zig_layers) <- 0.0;
  for i = 2 to zig_layers - 1 do
    zig_x.(i) <- sqrt (-2.0 *. log ((zig_v /. zig_x.(i - 1)) +. !f));
    f := exp (-0.5 *. zig_x.(i) *. zig_x.(i))
  done;
  for i = 0 to zig_layers - 1 do
    zig_ratio.(i) <- zig_x.(i + 1) /. zig_x.(i)
  done

(* New-Fang tail (Marsaglia 1964): exact conditional sampling of
   |x| > r by rejection on two exponentials. *)
let rec zig_tail t neg =
  let u1 = float t and u2 = float t in
  if u1 <= 0.0 || u2 <= 0.0 then zig_tail t neg
  else begin
    let x = log u1 /. zig_r in
    let y = log u2 in
    if -2.0 *. y < x *. x then zig_tail t neg
    else if neg then x -. zig_r
    else zig_r -. x
  end

(* Loop rather than recursion, and [@inline always]: the accept path
   (~98.9% of draws) then compiles into the caller with no call, no
   boxed return, and the layer draw's int64 in registers.  Same draw
   order and arithmetic as the recursive form, so streams are
   unchanged. *)
let[@inline always] gaussian_fast t =
  let res = ref 0.0 in
  let looping = ref true in
  while !looping do
    let bits = bits64 t in
    (* Low 7 bits pick the layer; the top 53 bits make the uniform in
       [-1, 1).  The bit sets are disjoint, and xoshiro256** scrambles
       low bits as well as high ones. *)
    let i = Int64.to_int (Int64.logand bits 127L) in
    let u = (Int64.to_float (Int64.shift_right_logical bits 11) *. 0x1p-52) -. 1.0 in
    let xi = Array.unsafe_get zig_x i in
    if Float.abs u < Array.unsafe_get zig_ratio i then begin
      res := u *. xi;
      looping := false
    end
    else if i = 0 then begin
      res := zig_tail t (u < 0.0);
      looping := false
    end
    else begin
      (* Wedge: accept x = u·x_i with probability proportional to the
         density excess over the next layer. *)
      let x = u *. xi in
      let xi1 = Array.unsafe_get zig_x (i + 1) in
      let f0 = exp (-0.5 *. ((xi *. xi) -. (x *. x))) in
      let f1 = exp (-0.5 *. ((xi1 *. xi1) -. (x *. x))) in
      if f1 +. (float t *. (f0 -. f1)) < 1.0 then begin
        res := x;
        looping := false
      end
    end
  done;
  !res

(* Direction fills on the ziggurat: the one direction source of every
   polytope walk (hit-and-run, ball walk, the DFK phase walk).  Draw every deviate, storing it and accumulating the
   squared norm in the same pass (index order), then normalise; a
   near-zero norm redraws the whole vector.  The slice forms write
   [buf.(off) .. buf.(off + len - 1)] so the batched kernel stages each
   chain's direction straight into its chain-major block slot.  Open
   code, no callback: a closure capturing [t] and [buf] would allocate
   on every direction draw, the samplers' hottest call. *)
let unit_vector_slice_fast t buf off len =
  let again = ref true in
  while !again do
    let n2 = ref 0.0 in
    for i = off to off + len - 1 do
      let g = gaussian_fast t in
      Array.unsafe_set buf i g;
      n2 := !n2 +. (g *. g)
    done;
    let n = sqrt !n2 in
    if n >= 1e-12 then begin
      let inv = 1.0 /. n in
      for i = off to off + len - 1 do
        Array.unsafe_set buf i (Array.unsafe_get buf i *. inv)
      done;
      again := false
    end
  done

let[@inline] unit_vector_into_fast t v =
  unit_vector_slice_fast t v 0 (Array.length v)

let[@inline] ball_radius t d = float t ** (1.0 /. float_of_int d)

let in_ball_slice_fast t buf off len =
  unit_vector_slice_fast t buf off len;
  let r = ball_radius t len in
  for i = off to off + len - 1 do
    Array.unsafe_set buf i (Array.unsafe_get buf i *. r)
  done

let[@inline] in_ball_into_fast t v = in_ball_slice_fast t v 0 (Array.length v)

(* The allocating polar-method draws.  No walk uses them; they stay for
   seeded geometry ([Synth]'s random parcels, test and bench fixtures)
   whose coordinates must not move.  Same draw order and arithmetic as
   the fast fill, on [gaussian]. *)
let unit_vector t d =
  let v = Vec.create d in
  let again = ref true in
  while !again do
    let n2 = ref 0.0 in
    for i = 0 to d - 1 do
      let g = gaussian t in
      Array.unsafe_set v i g;
      n2 := !n2 +. (g *. g)
    done;
    let n = sqrt !n2 in
    if n >= 1e-12 then begin
      let inv = 1.0 /. n in
      for i = 0 to d - 1 do
        Array.unsafe_set v i (Array.unsafe_get v i *. inv)
      done;
      again := false
    end
  done;
  v

let in_ball t d =
  let dir = unit_vector t d in
  let r = ball_radius t d in
  Vec.scale r dir

let in_box t lo hi =
  let x = Vec.create (Vec.dim lo) in
  for i = 0 to Vec.dim lo - 1 do
    x.(i) <- uniform t lo.(i) hi.(i)
  done;
  x

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let categorical t weights =
  let total = ref 0.0 in
  for i = 0 to Array.length weights - 1 do
    total := !total +. weights.(i)
  done;
  let total = !total in
  if total <= 0.0 then invalid_arg "Rng.categorical: zero total weight";
  let x = float t *. total in
  (* Fallback for when the scan below runs off the end without firing:
     [x < acc] can stay false through the last element (e.g. [x] rounds
     up to [total] on subnormal totals), and the old last-index default
     could then select an index whose weight is 0.  Default to the last
     *positive-weight* index instead — always well-defined since
     [total > 0]. *)
  let fallback = ref 0 in
  for i = 0 to Array.length weights - 1 do
    if weights.(i) > 0.0 then fallback := i
  done;
  let acc = ref 0.0 and chosen = ref (-1) and i = ref 0 in
  while !chosen < 0 && !i < Array.length weights do
    acc := !acc +. weights.(!i);
    if x < !acc then chosen := !i;
    incr i
  done;
  if !chosen < 0 then !fallback else !chosen
