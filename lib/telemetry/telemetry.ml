module Json = Scdb_json.Json

module Clock = struct
  (* CLOCK_MONOTONIC seconds: immune to wall-clock steps and NTP skew.
     The native stub returns an unboxed double and never allocates. *)
  external now : unit -> (float[@unboxed])
    = "scdb_clock_monotonic_byte" "scdb_clock_monotonic"
  [@@noalloc]
end

let enabled_flag =
  ref
    (match Sys.getenv_opt "SPATIALDB_STATS" with
    | Some "" | Some "0" | None -> false
    | Some _ -> true)

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* Bucket upper bounds 10^(k/2), k = -18 … 18: two per decade across
   the dynamic range of everything we measure (seconds, steps, rates).
   The final slot of each histogram's [buckets] array is the overflow
   bucket. *)
let bucket_bounds = Array.init 37 (fun i -> 10.0 ** ((float_of_int i /. 2.0) -. 9.0))
let n_buckets = Array.length bucket_bounds + 1

let bucket_for v =
  (* Linear scan: bounded at 37 and only on the enabled path; a binary
     search saves nothing at this size. *)
  let rec go i =
    if i >= Array.length bucket_bounds then i else if v <= bucket_bounds.(i) then i else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Cells and definitions                                               *)
(*                                                                     *)
(* Every metric is one process-wide cell that any domain may write to: *)
(* a counter is an [int Atomic.t], a histogram one mutable cell behind *)
(* its own mutex.  The disabled path is one mutable load and a branch; *)
(* the enabled counter path adds one atomic add.                       *)
(* ------------------------------------------------------------------ *)

type hcell = {
  mutable n : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  buckets : int array;
}

type counter = { c_name : string; c_cell : int Atomic.t }
type histogram = { h_name : string; h_mu : Mutex.t; h_cell : hcell }
type metric = M_counter of counter | M_histogram of histogram

(* Definition table: name -> metric plus the insertion-order list dumps
   iterate, guarded by [defs_mu] (metric creation is rare and cold). *)
let defs_mu = Mutex.create ()
let defs : (string, metric) Hashtbl.t = Hashtbl.create 64
let order : metric list ref = ref []

(* Look [name] up, or register the metric [fresh ()] builds; [kind]
   extracts the wanted kind (raising on a clash) once the lock is
   released. *)
let define name fresh kind =
  let m =
    Mutex.protect defs_mu (fun () ->
        match Hashtbl.find_opt defs name with
        | Some m -> m
        | None ->
            let m = fresh () in
            Hashtbl.replace defs name m;
            order := m :: !order;
            m)
  in
  kind m

module Counter = struct
  type t = counter

  let make name =
    define name
      (fun () -> M_counter { c_name = name; c_cell = Atomic.make 0 })
      (function
        | M_counter c -> c
        | M_histogram _ -> invalid_arg ("Telemetry.Counter.make: " ^ name ^ " is a histogram"))

  let incr c = if !enabled_flag then Atomic.incr c.c_cell
  let add c k = if !enabled_flag then ignore (Atomic.fetch_and_add c.c_cell k)
  let value c = Atomic.get c.c_cell
end

module Histogram = struct
  type t = histogram

  let make name =
    define name
      (fun () ->
        M_histogram
          {
            h_name = name;
            h_mu = Mutex.create ();
            h_cell =
              {
                n = 0;
                sum = 0.0;
                vmin = infinity;
                vmax = neg_infinity;
                buckets = Array.make n_buckets 0;
              };
          })
      (function
        | M_histogram h -> h
        | M_counter _ -> invalid_arg ("Telemetry.Histogram.make: " ^ name ^ " is a counter"))

  let observe_cell (cell : hcell) v =
    cell.n <- cell.n + 1;
    cell.sum <- cell.sum +. v;
    if v < cell.vmin then cell.vmin <- v;
    if v > cell.vmax then cell.vmax <- v;
    let b = cell.buckets in
    let i = bucket_for v in
    b.(i) <- b.(i) + 1

  let observe h v =
    if !enabled_flag then begin
      Mutex.lock h.h_mu;
      observe_cell h.h_cell v;
      Mutex.unlock h.h_mu
    end

  (* Readers take the histogram's mutex so a concurrent observation
     never shows half-applied. *)
  let read h f = Mutex.protect h.h_mu (fun () -> f h.h_cell)
  let count h = read h (fun c -> c.n)
  let sum h = read h (fun c -> c.sum)
  let mean_cell (c : hcell) = if c.n = 0 then 0.0 else c.sum /. float_of_int c.n

  (* Approximate quantile by linear interpolation inside the log-spaced
     bucket that contains the rank; [vmin]/[vmax] sharpen the first and
     last occupied buckets (and make the single-bucket case exact). *)
  let quantile_cell (c : hcell) q =
    if c.n = 0 then 0.0
    else begin
      let q = Float.max 0.0 (Float.min 1.0 q) in
      let rank = q *. float_of_int c.n in
      let rec go i cum =
        if i >= n_buckets then c.vmax
        else begin
          let k = c.buckets.(i) in
          let cum' = cum +. float_of_int k in
          if k > 0 && cum' >= rank then begin
            let lo = if i = 0 then c.vmin else bucket_bounds.(i - 1) in
            let hi = if i >= Array.length bucket_bounds then c.vmax else bucket_bounds.(i) in
            let lo = Float.max lo c.vmin and hi = Float.min hi c.vmax in
            let frac = Float.max 0.0 (Float.min 1.0 ((rank -. cum) /. float_of_int k)) in
            let v = if hi > lo then lo +. ((hi -. lo) *. frac) else lo in
            Float.max c.vmin (Float.min c.vmax v)
          end
          else go (i + 1) cum'
        end
      in
      go 0 0.0
    end

  let quantile h q = read h (fun c -> quantile_cell c q)
end

(* Snapshot the definition list, sorted by name. *)
let metrics () =
  let name_of = function M_counter c -> c.c_name | M_histogram h -> h.h_name in
  List.sort
    (fun a b -> compare (name_of a) (name_of b))
    (Mutex.protect defs_mu (fun () -> List.rev !order))

let reset () =
  List.iter
    (function
      | M_counter c -> Atomic.set c.c_cell 0
      | M_histogram h ->
          Histogram.read h (fun c ->
              c.n <- 0;
              c.sum <- 0.0;
              c.vmin <- infinity;
              c.vmax <- neg_infinity;
              Array.fill c.buckets 0 n_buckets 0))
    (metrics ())

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let dump ?(only_nonzero = true) () =
  let metrics = metrics () in
  let histogram (cell : hcell) =
    let buckets =
      List.concat
        (List.mapi
           (fun b k ->
             let le =
               if b < Array.length bucket_bounds then Json.Num bucket_bounds.(b)
               else Json.Str "inf"
             in
             if k = 0 then [] else [ Json.Arr [ le; Json.Int k ] ])
           (Array.to_list cell.buckets))
    in
    Json.Obj
      [
        ("count", Json.Int cell.n);
        ("sum", Json.clamp cell.sum);
        ("min", Json.clamp (if cell.n = 0 then 0.0 else cell.vmin));
        ("max", Json.clamp (if cell.n = 0 then 0.0 else cell.vmax));
        ("mean", Json.clamp (Histogram.mean_cell cell));
        ("p50", Json.clamp (Histogram.quantile_cell cell 0.50));
        ("p90", Json.clamp (Histogram.quantile_cell cell 0.90));
        ("p99", Json.clamp (Histogram.quantile_cell cell 0.99));
        ("buckets", Json.Arr buckets);
      ]
  in
  let counters =
    List.filter_map
      (function
        | M_counter c ->
            let n = Atomic.get c.c_cell in
            if only_nonzero && n = 0 then None else Some (c.c_name, Json.Int n)
        | M_histogram _ -> None)
      metrics
  in
  let histograms =
    List.filter_map
      (function
        | M_histogram h ->
            Histogram.read h (fun cell ->
                if only_nonzero && cell.n = 0 then None else Some (h.h_name, histogram cell))
        | M_counter _ -> None)
      metrics
  in
  Json.Obj
    [
      ("schema", Json.Str "spatialdb-telemetry/2");
      ("enabled", Json.Bool !enabled_flag);
      ("counters", Json.Obj counters);
      ("histograms", Json.Obj histograms);
    ]

let counter_value name =
  match Mutex.protect defs_mu (fun () -> Hashtbl.find_opt defs name) with
  | Some (M_counter c) -> Some (Atomic.get c.c_cell)
  | _ -> None
