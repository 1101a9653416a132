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
(* Cells, definitions and registries                                   *)
(*                                                                     *)
(* A metric now has two halves: the process-global *definition* (name, *)
(* dense per-kind index, created once at module initialization) and a  *)
(* per-registry *cell* holding the actual counts.  A [Registry.t] is   *)
(* just the cell store; observability contexts own one each, and the   *)
(* pre-context global registry survives as [Regs.default].         *)
(*                                                                     *)
(* Hot-path contract (measured in bench/regress.ml, [ctx_overhead]):   *)
(* each definition caches a pointer [c_cur] to the cell of the one     *)
(* registry currently installed on the *initial* domain.  A bump is    *)
(* then: enabled load + branch, cached-pointer load, sentinel compare, *)
(* unboxed store — within noise of the old global-record bump.  Only   *)
(* while a registry is installed on a *non-initial* domain do the      *)
(* cached pointers flip to a sentinel, routing every bump through the  *)
(* domain-local ambient registry so concurrent domains attribute to    *)
(* their own contexts.  The disabled path is unchanged: one mutable    *)
(* load and a branch, no allocation.                                   *)
(* ------------------------------------------------------------------ *)

type ccell = { mutable count : int }

type hcell = {
  mutable n : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  buckets : int array;
}

type counter = { c_name : string; c_idx : int; mutable c_cur : ccell }
type histogram = { h_name : string; h_idx : int; mutable h_cur : hcell }
type metric = M_counter of counter | M_histogram of histogram

(* The sentinels are flags, never written through: the fast path tests
   physical equality against them before storing. *)
let c_sentinel = { count = 0 }
let h_sentinel = { n = 0; sum = 0.0; vmin = infinity; vmax = neg_infinity; buckets = [||] }
let new_ccell () = { count = 0 }

let new_hcell () =
  { n = 0; sum = 0.0; vmin = infinity; vmax = neg_infinity; buckets = Array.make n_buckets 0 }

module Regs = struct
  type t = { mutable ccells : ccell array; mutable hcells : hcell array }

  let default = { ccells = [||]; hcells = [||] }
end

(* Definition tables: name -> definition plus the insertion-order list
   dumps iterate.  Guarded by [defs_mu] together with every cached-
   pointer swap; metric creation and context install/exit are rare, so
   one mutex covers all cold paths. *)
let defs_mu = Mutex.create ()
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let order : metric list ref = ref []
let n_counters = ref 0
let n_histograms = ref 0

let dls_reg : Regs.t Domain.DLS.key = Domain.DLS.new_key (fun () -> Regs.default)
let initial_domain : int = (Domain.self () :> int)

(* The registry the *initial* domain currently has installed (what the
   cached pointers point at while no foreign-domain install is live). *)
let initial_ambient = ref Regs.default

(* Number of live installs on non-initial domains; > 0 means the cached
   pointers are parked on the sentinels and bumps resolve through DLS. *)
let foreign_installs = ref 0

(* Grow a registry's cell stores to cover every current definition.
   Call with [defs_mu] held.  Arrays are replaced, cells are shared, so
   a racing reader holding the old array still sees live cells. *)
let ensure_reg (r : Regs.t) =
  let nc = !n_counters and nh = !n_histograms in
  if Array.length r.ccells < nc then
    r.ccells <-
      Array.init nc (fun i -> if i < Array.length r.ccells then r.ccells.(i) else new_ccell ());
  if Array.length r.hcells < nh then
    r.hcells <-
      Array.init nh (fun i -> if i < Array.length r.hcells then r.hcells.(i) else new_hcell ())

(* With [defs_mu] held: point a definition's cached cell into [r]. *)
let point (r : Regs.t) = function
  | M_counter c -> c.c_cur <- r.ccells.(c.c_idx)
  | M_histogram h -> h.h_cur <- r.hcells.(h.h_idx)

let swap_all r =
  ensure_reg r;
  List.iter (point r) !order

let park_all () =
  List.iter
    (function M_counter c -> c.c_cur <- c_sentinel | M_histogram h -> h.h_cur <- h_sentinel)
    !order

let enter_registry reg =
  Mutex.lock defs_mu;
  if (Domain.self () :> int) = initial_domain then begin
    initial_ambient := reg;
    if !foreign_installs = 0 then swap_all reg
  end
  else begin
    incr foreign_installs;
    if !foreign_installs = 1 then park_all ()
  end;
  Mutex.unlock defs_mu

let leave_registry prev =
  Mutex.lock defs_mu;
  if (Domain.self () :> int) = initial_domain then begin
    initial_ambient := prev;
    if !foreign_installs = 0 then swap_all prev
  end
  else begin
    decr foreign_installs;
    if !foreign_installs = 0 then swap_all !initial_ambient
  end;
  Mutex.unlock defs_mu

let with_registry reg f =
  let prev = Domain.DLS.get dls_reg in
  Domain.DLS.set dls_reg reg;
  enter_registry reg;
  Fun.protect
    ~finally:(fun () ->
      Domain.DLS.set dls_reg prev;
      leave_registry prev)
    f

(* Cell [idx] of one of [reg]'s stores, growing the registry if the
   definition postdates it.  Cold: only reached through the sentinel. *)
let slow_cell reg store idx =
  if idx >= Array.length (store reg) then begin
    Mutex.lock defs_mu;
    ensure_reg reg;
    Mutex.unlock defs_mu
  end;
  (store reg).(idx)

(* Read-only cell views: a registry that has never seen the definition
   reads as zero without being grown. *)
let ccell_ro (reg : Regs.t) idx = if idx < Array.length reg.ccells then Some reg.ccells.(idx) else None
let hcell_ro (reg : Regs.t) idx = if idx < Array.length reg.hcells then Some reg.hcells.(idx) else None

(* Look [name] up, or register the definition [fresh ()] builds and
   point it into the initial domain's registry; [kind] extracts the
   wanted kind (raising on a clash) once the lock is released. *)
let define name fresh kind =
  Mutex.lock defs_mu;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
        let m = fresh () in
        Hashtbl.replace registry name m;
        order := m :: !order;
        ensure_reg Regs.default;
        if !foreign_installs = 0 then begin
          ensure_reg !initial_ambient;
          point !initial_ambient m
        end;
        m
  in
  Mutex.unlock defs_mu;
  kind m

module Counter = struct
  type t = counter

  let make name =
    define name
      (fun () ->
        let c = { c_name = name; c_idx = !n_counters; c_cur = c_sentinel } in
        incr n_counters;
        M_counter c)
      (function
        | M_counter c -> c
        | M_histogram _ -> invalid_arg ("Telemetry.Counter.make: " ^ name ^ " is a histogram"))

  let slow_add c k =
    let cell = slow_cell (Domain.DLS.get dls_reg) (fun r -> r.Regs.ccells) c.c_idx in
    cell.count <- cell.count + k

  let incr c =
    if !enabled_flag then begin
      let cell = c.c_cur in
      if cell != c_sentinel then cell.count <- cell.count + 1 else slow_add c 1
    end

  let add c k =
    if !enabled_flag then begin
      let cell = c.c_cur in
      if cell != c_sentinel then cell.count <- cell.count + k else slow_add c k
    end

  let value c =
    match ccell_ro (Domain.DLS.get dls_reg) c.c_idx with Some cell -> cell.count | None -> 0
end

module Histogram = struct
  type t = histogram

  let make name =
    define name
      (fun () ->
        let h = { h_name = name; h_idx = !n_histograms; h_cur = h_sentinel } in
        incr n_histograms;
        M_histogram h)
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

  let slow_observe h v =
    observe_cell (slow_cell (Domain.DLS.get dls_reg) (fun r -> r.Regs.hcells) h.h_idx) v

  let observe h v =
    if !enabled_flag then begin
      let cell = h.h_cur in
      if cell != h_sentinel then observe_cell cell v else slow_observe h v
    end

  let empty_cell = h_sentinel
  let cell h = match hcell_ro (Domain.DLS.get dls_reg) h.h_idx with Some c -> c | None -> empty_cell
  let count h = (cell h).n
  let sum h = (cell h).sum
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

  let quantile h q = quantile_cell (cell h) q
end

(* ------------------------------------------------------------------ *)
(* Registry construction, reset and merge                              *)
(* ------------------------------------------------------------------ *)

let make_registry () =
  let r = { Regs.ccells = [||]; hcells = [||] } in
  Mutex.lock defs_mu;
  ensure_reg r;
  Mutex.unlock defs_mu;
  r

let zero_ccell (c : ccell) = c.count <- 0

let zero_hcell (h : hcell) =
  h.n <- 0;
  h.sum <- 0.0;
  h.vmin <- infinity;
  h.vmax <- neg_infinity;
  Array.fill h.buckets 0 n_buckets 0

let reset ?reg () =
  let r = match reg with Some r -> r | None -> Domain.DLS.get dls_reg in
  Mutex.lock defs_mu;
  ensure_reg r;
  Mutex.unlock defs_mu;
  Array.iter zero_ccell r.Regs.ccells;
  Array.iter zero_hcell r.Regs.hcells

(* Merge semantics (the context-merge counter/histogram laws): counters
   add; histograms add count, sum and per-bucket counts, min/max extend
   — so a merged histogram is *exactly* the histogram of the
   concatenated observations except for [sum]'s float association. *)
let merge_registry ~dst src =
  if dst != src then begin
    Mutex.lock defs_mu;
    ensure_reg dst;
    ensure_reg src;
    Mutex.unlock defs_mu;
    let dc = dst.Regs.ccells and sc = src.Regs.ccells in
    Array.iteri (fun i (d : ccell) -> d.count <- d.count + sc.(i).count) dc;
    let dh = dst.Regs.hcells and sh = src.Regs.hcells in
    Array.iteri
      (fun i (d : hcell) ->
        let s = sh.(i) in
        if s.n > 0 then begin
          d.n <- d.n + s.n;
          d.sum <- d.sum +. s.sum;
          if s.vmin < d.vmin then d.vmin <- s.vmin;
          if s.vmax > d.vmax then d.vmax <- s.vmax;
          for b = 0 to n_buckets - 1 do
            d.buckets.(b) <- d.buckets.(b) + s.buckets.(b)
          done
        end)
      dh
  end

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

(* Snapshot the definition list (sorted by name) and pin the target
   registry's capacity so the per-metric cell reads below never miss. *)
let export_defs (r : Regs.t) =
  Mutex.lock defs_mu;
  ensure_reg r;
  let name_of = function M_counter c -> c.c_name | M_histogram h -> h.h_name in
  let metrics = List.sort (fun a b -> compare (name_of a) (name_of b)) (List.rev !order) in
  Mutex.unlock defs_mu;
  metrics

let dump ?(only_nonzero = true) ?reg () =
  let r = match reg with Some r -> r | None -> Domain.DLS.get dls_reg in
  let metrics = export_defs r in
  let histogram cell =
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
            let n = r.Regs.ccells.(c.c_idx).count in
            if only_nonzero && n = 0 then None else Some (c.c_name, Json.Int n)
        | M_histogram _ -> None)
      metrics
  in
  let histograms =
    List.filter_map
      (function
        | M_histogram h ->
            let cell = r.Regs.hcells.(h.h_idx) in
            if only_nonzero && cell.n = 0 then None else Some (h.h_name, histogram cell)
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

let counter_value ?reg name =
  let r = match reg with Some r -> r | None -> Domain.DLS.get dls_reg in
  match Hashtbl.find_opt registry name with
  | Some (M_counter c) -> (
      match ccell_ro r c.c_idx with Some cell -> Some cell.count | None -> Some 0)
  | _ -> None

module Registry = struct
  include Regs

  let create () = make_registry ()
  let merge_into ~dst src = merge_registry ~dst src
end
