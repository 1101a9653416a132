module Plan = Scdb_plan.Plan
module Cost = Scdb_plan.Cost
module Tel = Scdb_telemetry.Telemetry
module Progress = Scdb_progress.Progress
module Log = Scdb_log.Log
module Probe = Scdb_obs.Probe
module Batch = Polytope.Kernel.Batch

let tel_draws = Tel.Counter.make "vm.draws"
let trial = Probe.trial ~counter:"vm.trials" ()
let walk_probe = Probe.walk "vm.steps"
let tel_programs = Tel.Counter.make "vm.programs"
let tel_lasserre = Tel.Counter.make "vm.lasserre_calls"

(* The exhaust handlers: the interpreter's warning events, counted in
   [vm.exhausted]. *)
let union_exhausted =
  Probe.warning ~counter:"vm.exhausted" "union.exhausted" (fun trials operands ->
      [ Probe.int "trials" trials; Probe.int "operands" operands ])

let inter_exhausted =
  Probe.warning ~counter:"vm.exhausted" "inter.exhausted" (fun budget operands dim ->
      [ Probe.int "budget" budget; Probe.int "operands" operands; Probe.int "dim" dim ])

let diff_exhausted =
  Probe.warning ~counter:"vm.exhausted" "diff.exhausted" (fun budget dim ->
      [ Probe.int "budget" budget; Probe.int "dim" dim ])

(* ------------------------------------------------------------------ *)
(* Instruction set                                                     *)
(* ------------------------------------------------------------------ *)

(* Opcode layout (operands inline in the code array; [t]rial slot,
   [w]eight slot, [j]ump register, [p]iece index, [m]embership pool
   offset, [L] code address):

     EMIT                      1 word   halt, current point is the draw
     FAILROOT                  1 word   root retries exhausted: log + raise
     TRIALS t k                3 words  trials[t] := k
     DECJNZ t L                3 words  trials[t] -= 1; jump L while > 0
     ENSURE w                  2 words  run weight prologue w once
     ALLZERO w L               3 words  jump L when all weights[w] <= 0
     CATEGORICAL w j           3 words  j := categorical draw over weights[w]
     ARGMIN w j                3 words  j := index of smallest weight
     DISPATCH j m L0..Lm-1     3+m      jump-threaded child dispatch
     WALK p                    2 words  run piece p's sampler, set point reg
     MEMBER m Lt Lf            4 words  packed-row membership on point reg
     MEMPOLY p Lt Lf           4 words  polytope membership on point reg
     JMP L                     2 words
     TICK                      1 word   one combinator trial (progress)
     EXHAUST e                 2 words  run exhaust closure e (warn+count) *)

let op_emit = 0
let op_failroot = 1
let op_trials = 2
let op_decjnz = 3
let op_ensure = 4
let op_allzero = 5
let op_categorical = 6
let op_argmin = 7
let op_dispatch = 8
let op_walk = 9
let op_member = 10
let op_mempoly = 11
let op_jmp = 12
let op_tick = 13
let op_exhaust = 14
let num_opcodes = 15

let opcode_name = function
  | 0 -> "emit"
  | 1 -> "failroot"
  | 2 -> "trials"
  | 3 -> "decjnz"
  | 4 -> "ensure"
  | 5 -> "allzero"
  | 6 -> "categorical"
  | 7 -> "argmin"
  | 8 -> "dispatch"
  | 9 -> "walk"
  | 10 -> "member"
  | 11 -> "mempoly"
  | 12 -> "jmp"
  | 13 -> "tick"
  | 14 -> "exhaust"
  | op -> Printf.sprintf "op%d" op

(* One execution counter per opcode ([vm.op.<name>]); the Prometheus
   emitter appends [_total].  Ticked unconditionally in [exec] — the
   disabled-telemetry path is one load and a branch. *)
let op_counters = Array.init num_opcodes (fun i -> Tel.Counter.make ("vm.op." ^ opcode_name i))

(* Rewrite tags: which vm-opt rewrite produced an instruction.  Stored
   per code word next to the originating plan-node id, so optimized
   programs stay attributable after their plan-shape rewrites. *)
let tag_none = 0
let tag_rejection_box = 1
let tag_shared_leaf = 2
let tag_reordered_mem = 3

let tag_name = function
  | 1 -> Some "rejection_box_substituted"
  | 2 -> Some "shared_union_leaf"
  | 3 -> Some "reordered_membership"
  | _ -> None

(* Not an instruction tag: a leaf whose weight is exact is listed by
   [rewrite_tags] under this name, next to its instructions' tags. *)
let exact_weight_tag = "exact_weight"

exception Compile_error of string

let cerr fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Growable pools and the label-backpatching assembler                 *)
(* ------------------------------------------------------------------ *)

module Ib = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }

  let push b v =
    if b.n = Array.length b.a then begin
      let a' = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a' 0 b.n;
      b.a <- a'
    end;
    b.a.(b.n) <- v;
    b.n <- b.n + 1

  let len b = b.n
  let to_array b = Array.sub b.a 0 b.n
end

module Fb = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 64 0.0; n = 0 }

  (* Returns the pool index of the pushed value. *)
  let push b v =
    if b.n = Array.length b.a then begin
      let a' = Array.make (2 * b.n) 0.0 in
      Array.blit b.a 0 a' 0 b.n;
      b.a <- a'
    end;
    b.a.(b.n) <- v;
    let i = b.n in
    b.n <- b.n + 1;
    i

  let to_array b = Array.sub b.a 0 b.n
end

module Asm = struct
  type t = {
    code : Ib.t;
    dbgn : Ib.t;  (* debug info: originating plan-node id per code word *)
    dbgt : Ib.t;  (* debug info: rewrite tag per code word *)
    mutable ctx_node : int;  (* current emission context, set by the gen functions *)
    mutable ctx_tag : int;
    mutable lbls : int array;
    mutable nlbl : int;
    mutable patches : int list;
  }

  let create () =
    {
      code = Ib.create ();
      dbgn = Ib.create ();
      dbgt = Ib.create ();
      ctx_node = 0;
      ctx_tag = tag_none;
      lbls = Array.make 64 (-1);
      nlbl = 0;
      patches = [];
    }

  let set_ctx a node tag =
    a.ctx_node <- node;
    a.ctx_tag <- tag

  let push a v =
    Ib.push a.code v;
    Ib.push a.dbgn a.ctx_node;
    Ib.push a.dbgt a.ctx_tag

  let new_label a =
    if a.nlbl = Array.length a.lbls then begin
      let l' = Array.make (2 * a.nlbl) (-1) in
      Array.blit a.lbls 0 l' 0 a.nlbl;
      a.lbls <- l'
    end;
    let l = a.nlbl in
    a.nlbl <- l + 1;
    a.lbls.(l) <- -1;
    l

  let bind a l = a.lbls.(l) <- Ib.len a.code

  (* Emit a label reference: the label id is written now and replaced
     by the bound address in [finalize]. *)
  let push_ref a l =
    a.patches <- Ib.len a.code :: a.patches;
    push a l

  let finalize a =
    let code = Ib.to_array a.code in
    List.iter
      (fun pos ->
        let l = code.(pos) in
        if l < 0 || l >= a.nlbl || a.lbls.(l) < 0 then
          cerr "vm: unbound label %d at code offset %d" l pos;
        code.(pos) <- a.lbls.(l))
      a.patches;
    (code, Ib.to_array a.dbgn, Ib.to_array a.dbgt)
end

(* ------------------------------------------------------------------ *)
(* Compiled pieces: one per distinct convex leaf                       *)
(* ------------------------------------------------------------------ *)

type kind = K_hr | K_grid of Grid.t | K_rej of { rlo : Vec.t; rhi : Vec.t }

type piece = {
  prep : Convex_obs.prepared;
  kind : kind;
  steps : int;  (* walk schedule of [kind]'s primary sampler *)
  hr_steps : int;  (* hit-and-run schedule (the K_rej fallback) *)
  batch : Batch.batch;  (* persistent K=1 kernel; reset per draw *)
  pdirs : float array;  (* raw direction block of [batch] *)
  plows : float array;
  phighs : float array;
  ppos : float array;  (* raw position block of [batch] *)
  pstart : Vec.t;  (* the rounded body's start point (origin) *)
  pmem : Vec.t -> bool;  (* walk oracle: body membership, no slack *)
}

let make_piece (prep : Convex_obs.prepared) kind ~steps ~hr_steps =
  let d = prep.Convex_obs.p_dim in
  let body = prep.Convex_obs.p_body in
  let start = Vec.create d in
  let batch = Batch.make body [| start |] in
  {
    prep;
    kind;
    steps;
    hr_steps;
    batch;
    pdirs = Batch.directions batch;
    plows = Batch.lows batch;
    phighs = Batch.highs batch;
    ppos = Batch.positions batch;
    pstart = start;
    pmem = (fun x -> Polytope.mem body x);
  }

(* Hit-and-run on the persistent batch kernel, chain 0.  [set_pos]
   rebuilds the chain's cache block, making the reused batch equivalent
   to the fresh one-chain batch the interpreter's
   [Hit_and_run.sample_polytope_batch] call constructs; the per-step
   draw order (ziggurat direction fill, then a uniform iff the chord is
   usable) replicates the interpreter's, so the rng stream is
   bit-identical. *)
let hr_draw p rng steps =
  Probe.steps walk_probe ~chains:1 ~steps ~proposals:0 ~tally:0;
  let d = Vec.dim p.pstart in
  Batch.set_pos p.batch 0 p.pstart;
  for _ = 1 to steps do
    Rng.unit_vector_slice_fast rng p.pdirs 0 d;
    Batch.chord_all p.batch;
    let lo = Array.unsafe_get p.plows 0 and hi = Array.unsafe_get p.phighs 0 in
    if hi > lo && Float.is_finite lo && Float.is_finite hi then
      Batch.advance p.batch 0 (Rng.uniform rng lo hi)
  done;
  Batch.pos p.batch 0

let walk_piece p rng =
  let point =
    match p.kind with
    | K_hr -> hr_draw p rng p.steps
    | K_grid grid -> Walk.sample rng ~grid ~mem:p.pmem ~start:p.pstart ~steps:p.steps
    | K_rej { rlo; rhi } -> (
        match Rejection.sample rng ~lo:rlo ~hi:rhi ~mem:p.pmem ~max_attempts:20_000 with
        | Some (x, _) -> x
        | None -> hr_draw p rng p.hr_steps)
  in
  Affine.apply_inverse p.prep.Convex_obs.p_transform point

(* ------------------------------------------------------------------ *)
(* Programs                                                            *)
(* ------------------------------------------------------------------ *)

type t = {
  code : int array;
  dbg_node : int array;  (* per code word: originating plan-node id *)
  dbg_tag : int array;  (* per code word: rewrite tag (0 = none) *)
  paths : int array array;  (* per node id: ancestry below the root, self last *)
  fpool : float array;
  mtab : int array;
  pieces : piece array;
  weights : float array array;
  ready : bool array;
  prologues : (Rng.t -> unit) array;
  trials : int array;
  jregs : int array;
  exhausts : (unit -> unit) array;
  root_attempts : int;
  root_id : int;
  pdim : int;
  opt : bool;
  header : string;
  mirror_obs : Observable.t;
  exact_ids : int list;  (* plan-node ids of the leaves tagged exact_weight *)
}

let optimized t = t.opt
let dim t = t.pdim
let mirror t = t.mirror_obs
let code_words t = Array.length t.code
let node_at t pc = t.dbg_node.(pc)
let tag_at t pc = tag_name t.dbg_tag.(pc)
let opcode_at t pc = t.code.(pc)

(* Packed membership evaluation, mirroring [Relation.mem_float
   ~slack:1e-9]: exists over tuples of (for_all over atoms), each atom
   accumulating constant + Σ coeff·x over ascending variable index with
   the same float operation order as [Term.eval_float]. *)
let mem_rows t moff (x : Vec.t) =
  let mc = t.mtab and fp = t.fpool in
  let slack = 1e-9 in
  let ntuples = mc.(moff) in
  let p = ref (moff + 1) in
  let result = ref false in
  (try
     for _ = 1 to ntuples do
       let natoms = mc.(!p) in
       incr p;
       let ok = ref true in
       for _ = 1 to natoms do
         let op = mc.(!p) and k = mc.(!p + 1) and cidx = mc.(!p + 2) in
         p := !p + 3;
         if !ok then begin
           let acc = ref fp.(cidx) in
           for i = 0 to k - 1 do
             let var = mc.(!p + (2 * i)) and fi = mc.(!p + (2 * i) + 1) in
             acc := !acc +. (fp.(fi) *. x.(var))
           done;
           let v = !acc in
           let holds =
             match op with 0 -> v <= slack | 1 -> v < slack | _ -> Float.abs v <= slack
           in
           if not holds then ok := false
         end;
         p := !p + (2 * k)
       done;
       if !ok then begin
         result := true;
         raise Exit
       end
     done
   with Exit -> ());
  !result

exception Emitted

(* Profiling cells, filled by [exec] when supplied: [pcounts.(pc)] is
   the exact execution count of the instruction based at [pc];
   [ptimes.(pc)] accumulates wall ns when [ptiming] — only the
   expensive opcodes (WALK, ENSURE, MEMBER, MEMPOLY) take clock reads,
   which keeps the timing-mode overhead within the ≤5% budget on
   walk-bound programs. *)
type prof = { pcounts : int array; ptimes : float array; ptiming : bool }

(* Wall ns since [t0] into the timing cell of the instruction at [base]. *)
let[@inline] charge p base t0 =
  p.ptimes.(base) <- p.ptimes.(base) +. ((Tel.Clock.now () -. t0) *. 1e9)

let exec ?prof t rng =
  let code = t.code in
  let pc = ref 0 in
  let x = ref t.pieces.(0).pstart in
  let res = ref t.pieces.(0).pstart in
  (try
     while true do
       let base = !pc in
       let op = Array.unsafe_get code base in
       Tel.Counter.incr (Array.unsafe_get op_counters op);
       (match prof with
       | None -> ()
       | Some p -> Array.unsafe_set p.pcounts base (Array.unsafe_get p.pcounts base + 1));
       match op with
       | 0 (* EMIT *) ->
           res := !x;
           raise Emitted
       | 1 (* FAILROOT *) ->
           if Log.would_log Log.Error then
             Log.error "observable.sample_failed"
               [ Log.int "attempts" t.root_attempts; Log.int "dim" t.pdim ];
           raise (Observable.Estimation_failed "generator failed on every retry")
       | 2 (* TRIALS *) ->
           t.trials.(code.(base + 1)) <- code.(base + 2);
           pc := base + 3
       | 3 (* DECJNZ *) ->
           let s = code.(base + 1) in
           let v = t.trials.(s) - 1 in
           t.trials.(s) <- v;
           if v > 0 then pc := code.(base + 2) else pc := base + 3
       | 4 (* ENSURE *) ->
           let s = code.(base + 1) in
           if not t.ready.(s) then begin
             (match prof with
             | Some p when p.ptiming ->
                 let t0 = Tel.Clock.now () in
                 t.prologues.(s) rng;
                 charge p base t0
             | _ -> t.prologues.(s) rng);
             t.ready.(s) <- true
           end;
           pc := base + 2
       | 5 (* ALLZERO *) ->
           let w = t.weights.(code.(base + 1)) in
           if Array.for_all (fun v -> v <= 0.0) w then pc := code.(base + 2)
           else pc := base + 3
       | 6 (* CATEGORICAL *) ->
           t.jregs.(code.(base + 2)) <- Rng.categorical rng t.weights.(code.(base + 1));
           pc := base + 3
       | 7 (* ARGMIN *) ->
           let w = t.weights.(code.(base + 1)) in
           let j = ref 0 in
           Array.iteri (fun i v -> if v < w.(!j) then j := i) w;
           t.jregs.(code.(base + 2)) <- !j;
           pc := base + 3
       | 8 (* DISPATCH *) -> pc := code.(base + 3 + t.jregs.(code.(base + 1)))
       | 9 (* WALK *) ->
           (* Attribute the walk (and everything the sampler accrues
              underneath) to the leaf's plan node, not just the root:
              the ETA ticker and post-run attribution see per-leaf
              actuals exactly like the interpreter's tagged tree. *)
           let path = Array.unsafe_get t.paths (Array.unsafe_get t.dbg_node base) in
           Progress.enter_path path;
           (match prof with
           | Some p when p.ptiming ->
               let t0 = Tel.Clock.now () in
               x := walk_piece t.pieces.(code.(base + 1)) rng;
               charge p base t0
           | _ -> x := walk_piece t.pieces.(code.(base + 1)) rng);
           Progress.exit_path path;
           pc := base + 2
       | 10 (* MEMBER *) ->
           (match prof with
           | Some p when p.ptiming ->
               let t0 = Tel.Clock.now () in
               let r = mem_rows t code.(base + 1) !x in
               charge p base t0;
               pc := (if r then code.(base + 2) else code.(base + 3))
           | _ ->
               pc := (if mem_rows t code.(base + 1) !x then code.(base + 2) else code.(base + 3)))
       | 11 (* MEMPOLY *) ->
           let pe = t.pieces.(code.(base + 1)) in
           (match prof with
           | Some p when p.ptiming ->
               let t0 = Tel.Clock.now () in
               let r = Polytope.mem ~slack:1e-9 pe.prep.Convex_obs.p_original !x in
               charge p base t0;
               pc := (if r then code.(base + 2) else code.(base + 3))
           | _ ->
               pc :=
                 (if Polytope.mem ~slack:1e-9 pe.prep.Convex_obs.p_original !x then
                    code.(base + 2)
                  else code.(base + 3)))
       | 12 (* JMP *) -> pc := code.(base + 1)
       | 13 (* TICK *) ->
           Probe.trials_on trial (Array.unsafe_get t.paths (Array.unsafe_get t.dbg_node base)) 1;
           pc := base + 1
       | 14 (* EXHAUST *) ->
           t.exhausts.(code.(base + 1)) ();
           pc := base + 2
       | op -> failwith (Printf.sprintf "vm: bad opcode %d at %d" op base)
     done
   with Emitted -> ());
  !res

let sample_one ?prof t rng =
  Progress.with_node t.root_id @@ fun () ->
  let v = exec ?prof t rng in
  Tel.Counter.incr tel_draws;
  v

let sample_many ?prof t rng ~n =
  let acc = ref [] in
  for _ = 1 to n do
    acc := sample_one ?prof t rng :: !acc
  done;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let sampler_name (c : Convex_obs.config) =
  match c.Convex_obs.sampler with
  | Convex_obs.Grid_walk -> "grid"
  | Convex_obs.Hit_and_run -> "walk"
  | Convex_obs.Rejection_box -> "rejection"

let kind_name = function
  | K_hr -> "hit-and-run"
  | K_grid _ -> "grid-walk"
  | K_rej _ -> "rejection-box"

(* Pack a relation's membership test: [ntuples; per tuple: natoms; per
   atom: op, nterms, const-idx, (var, coeff-idx)×nterms].  Coefficients
   go through [Rational.to_float] exactly as [Term.eval_float] would. *)
let pack_relation mtab fpool r =
  let off = Ib.len mtab in
  let tuples = Relation.tuples r in
  Ib.push mtab (List.length tuples);
  List.iter
    (fun tuple ->
      Ib.push mtab (List.length tuple);
      List.iter
        (fun (atom : Atom.t) ->
          let term = atom.Atom.term in
          let opc = match atom.Atom.op with Atom.Le -> 0 | Atom.Lt -> 1 | Atom.Eq -> 2 in
          let coeffs = Term.coeffs term in
          Ib.push mtab opc;
          Ib.push mtab (List.length coeffs);
          Ib.push mtab (Fb.push fpool (Rational.to_float (Term.constant term)));
          List.iter
            (fun (v, c) ->
              Ib.push mtab v;
              Ib.push mtab (Fb.push fpool (Rational.to_float c)))
            coeffs)
        tuple)
    tuples;
  off

(* The exact route to a leaf's weight: [obs] with its volume replaced by
   the Lasserre volume of [tuple], computed on first use and kept.  It
   draws no rng; should the exact call raise, every request falls back
   to [obs]'s own DFK estimate on the rng it is handed.  A prepared
   piece was rounded, so its tuple is non-empty and the feasibility LP
   has nothing to decide. *)
let exact_weight ~dim tuple (obs : Observable.t) =
  let v =
    lazy
      (let calls = ref 0 in
       let v =
         match Volume_exact.volume_tuple ~calls ~nonempty:true ~dim tuple with
         | q -> Some (Rational.to_float q)
         | exception (Volume_exact.Unbounded | Invalid_argument _ | Division_by_zero) -> None
       in
       Tel.Counter.add tel_lasserre !calls;
       v)
  in
  {
    obs with
    Observable.volume =
      (fun rng ~gamma ~eps ~delta ->
        match Lazy.force v with
        | Some v -> v
        | None -> obs.Observable.volume rng ~gamma ~eps ~delta);
  }

let is_leaf (n : Plan.node) =
  match n.Plan.op with Plan.Dfk _ | Plan.Guard -> true | _ -> false

let compile_exn opt (plan : Plan.t) (prepared : Convex_obs.prepared array) =
  (match plan.Plan.task with
  | Plan.Sample _ | Plan.Report _ -> ()
  | _ -> cerr "vm compiles sampling plans only");
  let delta = plan.Plan.delta and gamma = plan.Plan.gamma in
  (* Preorder leaves; binds piece [i] to the i-th dfk/guard leaf. *)
  let acc = ref [] in
  let rec collect (n : Plan.node) =
    match n.Plan.op with
    | Plan.Dfk _ | Plan.Guard -> acc := n :: !acc
    | Plan.Union_op _ | Plan.Inter_op _ | Plan.Diff_op _ -> List.iter collect n.Plan.children
    | op -> cerr "unsupported plan operator %S" (Plan.op_name op)
  in
  collect plan.Plan.root;
  let leaves = Array.of_list (List.rev !acc) in
  let nleaf = Array.length leaves in
  if nleaf <> Array.length prepared then
    cerr "piece count mismatch: plan has %d leaves, %d pieces prepared" nleaf
      (Array.length prepared);
  let ord_of_id = Hashtbl.create 16 in
  Array.iteri (fun i (n : Plan.node) -> Hashtbl.replace ord_of_id n.Plan.id i) leaves;
  (* Accuracy threading: the combinators sample children at ε/3
     ([Params.third_eps]); γ and δ are invariant. *)
  let eps_of_id = Hashtbl.create 16 in
  let rec thread (n : Plan.node) eps =
    Hashtbl.replace eps_of_id n.Plan.id eps;
    List.iter (fun c -> thread c (eps /. 3.0)) n.Plan.children
  in
  thread plan.Plan.root plan.Plan.eps;
  (* Duplicate-leaf sharing (optimized engine): leaves over the same
     original body with the same sampler configuration compile to one
     piece.  Rounding draws differ between duplicates, but any rounding
     of the same body yields the same sampling distribution. *)
  let leaf_eq i j =
    let a = prepared.(i) and b = prepared.(j) in
    a.Convex_obs.p_dim = b.Convex_obs.p_dim
    && a.Convex_obs.p_original.Polytope.flat = b.Convex_obs.p_original.Polytope.flat
    && a.Convex_obs.p_original.Polytope.b = b.Convex_obs.p_original.Polytope.b
    && a.Convex_obs.p_config = b.Convex_obs.p_config
  in
  let rep =
    Array.init nleaf (fun i ->
        if not opt then i
        else begin
          let r = ref i in
          (try
             for j = 0 to i - 1 do
               if leaf_eq j i then begin
                 r := j;
                 raise Exit
               end
             done
           with Exit -> ());
          !r
        end)
  in
  (* Validate leaves against the cost model and build distinct pieces. *)
  let leaf_info i (n : Plan.node) =
    let p = prepared.(i) in
    let d = p.Convex_obs.p_dim in
    if n.Plan.dim <> d then
      cerr "leaf %d (node %d): plan dim %d <> piece dim %d" i n.Plan.id n.Plan.dim d;
    let cfg = p.Convex_obs.p_config in
    let hr_steps =
      match cfg.Convex_obs.walk_steps with
      | Some s -> s
      | None -> Hit_and_run.default_steps ~dim:d
    in
    match n.Plan.op with
    | Plan.Guard -> (K_hr, hr_steps, hr_steps, false)
    | Plan.Dfk { method_; walk_steps; _ } ->
        let mname = sampler_name cfg in
        if mname <> method_ then
          cerr "leaf %d (node %d): plan method %S <> piece sampler %S" i n.Plan.id method_
            mname;
        let eps = Hashtbl.find eps_of_id n.Plan.id in
        let steps =
          match cfg.Convex_obs.walk_steps with
          | Some s -> s
          | None -> (
              match cfg.Convex_obs.sampler with
              | Convex_obs.Grid_walk -> Walk.default_steps ~dim:d ~eps
              | Convex_obs.Hit_and_run | Convex_obs.Rejection_box -> hr_steps)
        in
        if cfg.Convex_obs.walk_steps = None && steps <> walk_steps then
          cerr "leaf %d (node %d): plan walk_steps %d <> cost model %d at eps %g" i n.Plan.id
            walk_steps steps eps;
        let kind =
          match cfg.Convex_obs.sampler with
          | Convex_obs.Grid_walk ->
              K_grid (Grid.step_for ~gamma ~dim:d ~scale:p.Convex_obs.p_r_sup)
          | Convex_obs.Hit_and_run -> K_hr
          | Convex_obs.Rejection_box -> (
              (* The interpreter solves this LP on every draw; it is
                 rng-free, so hoisting it to compile time is
                 stream-preserving. *)
              match Polytope.bounding_box p.Convex_obs.p_body with
              | None -> K_hr
              | Some (lo, hi) -> K_rej { rlo = lo; rhi = hi })
        in
        let kind, swapped =
          (* Cost-based sampler selection: when the expected rejection
             budget undercuts the hit-and-run schedule, swap the leaf
             to exact-uniform box rejection (stream-changing: optimized
             engine only). *)
          if opt && kind = K_hr && Cost.rejection_box_trials ~dim:d <= steps then
            match Polytope.bounding_box p.Convex_obs.p_body with
            | Some (lo, hi) -> (K_rej { rlo = lo; rhi = hi }, true)
            | None -> (K_hr, false)
          else (kind, false)
        in
        (kind, steps, hr_steps, swapped)
    | _ -> assert false
  in
  let rt_acc = ref [] and nrt = ref 0 in
  let rt_idx = Array.make nleaf (-1) in
  let swapped = Array.make nleaf false in
  Array.iteri
    (fun i n ->
      let kind, steps, hr_steps, sw = leaf_info i n in
      swapped.(i) <- sw;
      if rep.(i) = i then begin
        rt_acc := make_piece prepared.(i) kind ~steps ~hr_steps :: !rt_acc;
        rt_idx.(i) <- !nrt;
        incr nrt
      end)
    leaves;
  (* Rewrite tag of a leaf's own instructions. *)
  let leaf_tag i =
    if rep.(i) <> i then tag_shared_leaf
    else if swapped.(i) then tag_rejection_box
    else tag_none
  in
  (* Cost-based weight selection: a leaf's weight comes from the exact
     Lasserre volume of its tuple when the proven bound on the
     recursion's calls, priced in walk steps, is no more than the DFK
     estimate's own walk (phases × samples per phase × walk steps).
     Stream-changing, so optimized engine only. *)
  let weight_routes =
    Array.mapi
      (fun i (n : Plan.node) ->
        match (n.Plan.op, prepared.(i).Convex_obs.p_relation) with
        | Plan.Dfk { phases; samples_per_phase; walk_steps; _ }, Some r when opt -> (
            match Relation.tuples r with
            | [ tuple ] ->
                let bound =
                  Cost.lasserre_calls ~dim:n.Plan.dim ~rows:(Volume_exact.tuple_rows tuple)
                in
                let exact = bound *. Cost.walk_steps_per_lasserre_call in
                let dfk =
                  float_of_int phases *. float_of_int samples_per_phase *. float_of_int walk_steps
                in
                Some (tuple, bound, exact, dfk)
            | _ -> None)
        | _ -> None)
      leaves
  in
  let exact_tuple i =
    match weight_routes.(i) with
    | Some (tuple, _, exact, dfk) when exact <= dfk -> Some tuple
    | _ -> None
  in
  Array.iteri (fun i _ -> if rep.(i) <> i then rt_idx.(i) <- rt_idx.(rep.(i))) leaves;
  let pieces = Array.of_list (List.rev !rt_acc) in
  if Array.length pieces = 0 then cerr "plan has no convex pieces";
  (* Membership row packing, shared between duplicates. *)
  let mtab = Ib.create () and fpool = Fb.create () in
  let moff = Array.make nleaf (-1) in
  Array.iteri
    (fun i _ ->
      if rep.(i) = i then
        match prepared.(i).Convex_obs.p_relation with
        | Some r -> moff.(i) <- pack_relation mtab fpool r
        | None -> ())
    leaves;
  Array.iteri (fun i _ -> if rep.(i) <> i then moff.(i) <- moff.(rep.(i))) leaves;
  (* Mirror observable tree: the weight prologues estimate volumes
     through the same interpreted estimators (and internal caches) the
     interpreter engine uses, so the draw sequences coincide.  Each
     node is wrapped with [Observable.tag], as on the interpreter side
     (rng-free, so stream-preserving): prologue volume work lands on
     the child that spends it, and [report --engine vm*] can run its
     volume estimate through the stored root mirror with full
     attribution. *)
  let kids_of_id = Hashtbl.create 8 in
  let ord = ref 0 in
  let rec mirror (n : Plan.node) : Observable.t =
    let obs =
      match n.Plan.op with
      | Plan.Dfk _ | Plan.Guard -> (
          let i = !ord in
          incr ord;
          let obs = Convex_obs.observe prepared.(i) in
          match exact_tuple i with
          | Some tuple -> exact_weight ~dim:n.Plan.dim tuple obs
          | None -> obs)
      | Plan.Union_op _ ->
          let kids = Array.of_list (List.map mirror n.Plan.children) in
          Hashtbl.replace kids_of_id n.Plan.id kids;
          Union.union (Array.to_list kids)
      | Plan.Inter_op { poly_degree; _ } ->
          let kids = Array.of_list (List.map mirror n.Plan.children) in
          Hashtbl.replace kids_of_id n.Plan.id kids;
          Inter.inter ~poly_degree (Array.to_list kids)
      | Plan.Diff_op { poly_degree; _ } -> (
          match List.map mirror n.Plan.children with
          | [ a; b ] -> Diff.diff ~poly_degree a b
          | _ -> cerr "diff node %d must have exactly two children" n.Plan.id)
      | _ -> assert false
    in
    Observable.tag n.Plan.id obs
  in
  let mirror_obs = mirror plan.Plan.root in
  (* Intersection membership order: smallest bounding box first, so the
     conjunction fails fast (rng-free, hence stream-preserving — but
     kept to the optimized engine so strict stays a pure mirror). *)
  let order_of_id = Hashtbl.create 8 in
  let mem_order (n : Plan.node) =
    match Hashtbl.find_opt order_of_id n.Plan.id with
    | Some o -> o
    | None ->
        let kids = Array.of_list n.Plan.children in
        let m = Array.length kids in
        let order =
          if not opt then Array.init m Fun.id
          else begin
            let key (c : Plan.node) =
              if not (is_leaf c) then Float.infinity
              else
                let i = Hashtbl.find ord_of_id c.Plan.id in
                match Polytope.bounding_box prepared.(i).Convex_obs.p_original with
                | None -> Float.infinity
                | Some (lo, hi) ->
                    let v = ref 1.0 in
                    for k = 0 to Vec.dim lo - 1 do
                      v := !v *. Float.max 0.0 (hi.(k) -. lo.(k))
                    done;
                    !v
            in
            let keys = Array.map key kids in
            Array.of_list
              (List.sort
                 (fun a b -> compare (keys.(a), a) (keys.(b), b))
                 (List.init m Fun.id))
          end
        in
        Hashtbl.replace order_of_id n.Plan.id order;
        order
  in
  (* Slot allocation. *)
  let asm = Asm.create () in
  let weights = ref [] and prologues = ref [] and wdesc = ref [] and nw = ref 0 in
  let new_wslot arr thunk desc =
    let s = !nw in
    incr nw;
    weights := arr :: !weights;
    prologues := thunk :: !prologues;
    wdesc := desc :: !wdesc;
    s
  in
  let ntr = ref 0 and tdesc = ref [] in
  let new_tslot desc =
    let s = !ntr in
    incr ntr;
    tdesc := desc :: !tdesc;
    s
  in
  let njr = ref 0 in
  let new_jreg () =
    let s = !njr in
    incr njr;
    s
  in
  let exhausts = ref [] and nex = ref 0 in
  let new_exhaust f =
    let s = !nex in
    incr nex;
    exhausts := f :: !exhausts;
    s
  in
  (* Code generation: each block runs with the point register as its
     only value state and exits through [lsucc] (point accepted) or
     [lfail] (this node declared failure, the interpreter's [None]). *)
  let rec gen_sample (n : Plan.node) ~lsucc ~lfail =
    match n.Plan.op with
    | Plan.Dfk _ ->
        let i = Hashtbl.find ord_of_id n.Plan.id in
        Asm.set_ctx asm n.Plan.id (leaf_tag i);
        Asm.push asm op_walk;
        Asm.push asm rt_idx.(i);
        Asm.push asm op_jmp;
        Asm.push_ref asm lsucc;
        ignore lfail
    | Plan.Guard -> cerr "guard node %d is membership-only and cannot be sampled" n.Plan.id
    | Plan.Union_op { trials; _ } -> gen_union n trials ~lsucc ~lfail
    | Plan.Inter_op { poly_degree; budget; _ } -> gen_inter n poly_degree budget ~lsucc ~lfail
    | Plan.Diff_op { poly_degree; budget; _ } -> gen_diff n poly_degree budget ~lsucc ~lfail
    | _ -> assert false
  and gen_mem ?(rtag = tag_none) (n : Plan.node) ~ltrue ~lfalse =
    match n.Plan.op with
    | Plan.Dfk _ | Plan.Guard ->
        let i = Hashtbl.find ord_of_id n.Plan.id in
        let tag = if rtag <> tag_none then rtag else leaf_tag i in
        Asm.set_ctx asm n.Plan.id tag;
        if moff.(i) >= 0 then begin
          Asm.push asm op_member;
          Asm.push asm moff.(i)
        end
        else begin
          Asm.push asm op_mempoly;
          Asm.push asm rt_idx.(i)
        end;
        Asm.push_ref asm ltrue;
        Asm.push_ref asm lfalse
    | Plan.Union_op _ ->
        (* exists: first accepting child wins *)
        let kids = Array.of_list n.Plan.children in
        let m = Array.length kids in
        Array.iteri
          (fun i c ->
            if i < m - 1 then begin
              let lnext = Asm.new_label asm in
              gen_mem ~rtag c ~ltrue ~lfalse:lnext;
              Asm.bind asm lnext
            end
            else gen_mem ~rtag c ~ltrue ~lfalse)
          kids
    | Plan.Inter_op _ ->
        let kids = Array.of_list n.Plan.children in
        let order = mem_order n in
        let m = Array.length kids in
        let reordered = ref false in
        Array.iteri (fun k j -> if k <> j then reordered := true) order;
        let rtag = if !reordered then tag_reordered_mem else rtag in
        Array.iteri
          (fun k j ->
            if k < m - 1 then begin
              let lnext = Asm.new_label asm in
              gen_mem ~rtag kids.(j) ~ltrue:lnext ~lfalse;
              Asm.bind asm lnext
            end
            else gen_mem ~rtag kids.(j) ~ltrue ~lfalse)
          order
    | Plan.Diff_op _ -> (
        match n.Plan.children with
        | [ a; b ] ->
            let l2 = Asm.new_label asm in
            gen_mem ~rtag a ~ltrue:l2 ~lfalse;
            Asm.bind asm l2;
            gen_mem ~rtag b ~ltrue:lfalse ~lfalse:ltrue
        | _ -> cerr "diff node %d must have exactly two children" n.Plan.id)
    | _ -> assert false
  and gen_union (n : Plan.node) trials ~lsucc ~lfail =
    let kids = Array.of_list n.Plan.children in
    let m = Array.length kids in
    let expect = Cost.union_trials ~m ~delta in
    if trials <> expect then
      cerr "union node %d: plan trials %d <> cost model %d" n.Plan.id trials expect;
    let eps = Hashtbl.find eps_of_id n.Plan.id in
    let eps3, sub_delta = Cost.child_grant ~m ~eps ~delta in
    let mirrors = Hashtbl.find kids_of_id n.Plan.id in
    let w = Array.make m 0.0 in
    (* Weight sharing between duplicate sibling leaves (optimized). *)
    let dup = Array.make m (-1) in
    if opt then
      Array.iteri
        (fun i c ->
          if is_leaf c then begin
            let oi = Hashtbl.find ord_of_id c.Plan.id in
            try
              Array.iteri
                (fun k c' ->
                  if k >= i then raise Exit;
                  if is_leaf c' && leaf_eq (Hashtbl.find ord_of_id c'.Plan.id) oi then begin
                    dup.(i) <- k;
                    raise Exit
                  end)
                kids
            with Exit -> ()
          end)
        kids;
    let thunk rng =
      Array.iteri
        (fun i kid ->
          if dup.(i) >= 0 then w.(i) <- w.(dup.(i))
          else w.(i) <- Observable.volume kid rng ~gamma ~eps:eps3 ~delta:sub_delta)
        mirrors
    in
    let shared = Array.fold_left (fun c d -> if d >= 0 then c + 1 else c) 0 dup in
    let ws =
      new_wslot w thunk
        (Printf.sprintf "node %d union: m=%d eps=%g delta=%g%s" n.Plan.id m eps3 sub_delta
           (if shared > 0 then Printf.sprintf " (%d duplicate weight(s) shared)" shared
            else ""))
    in
    let ts = new_tslot (Printf.sprintf "node %d union: %d trials" n.Plan.id trials) in
    let jr = new_jreg () in
    Asm.set_ctx asm n.Plan.id (if shared > 0 then tag_shared_leaf else tag_none);
    Asm.push asm op_ensure;
    Asm.push asm ws;
    Asm.set_ctx asm n.Plan.id tag_none;
    Asm.push asm op_allzero;
    Asm.push asm ws;
    Asm.push_ref asm lfail;
    Asm.push asm op_trials;
    Asm.push asm ts;
    Asm.push asm trials;
    let ltrial = Asm.new_label asm in
    Asm.bind asm ltrial;
    Asm.push asm op_tick;
    Asm.push asm op_categorical;
    Asm.push asm ws;
    Asm.push asm jr;
    let ldec = Asm.new_label asm in
    let targets = Array.init m (fun _ -> Asm.new_label asm) in
    Asm.push asm op_dispatch;
    Asm.push asm jr;
    Asm.push asm m;
    Array.iter (fun l -> Asm.push_ref asm l) targets;
    Array.iteri
      (fun j cj ->
        Asm.bind asm targets.(j);
        let lchk = Asm.new_label asm in
        gen_sample cj ~lsucc:lchk ~lfail:ldec;
        Asm.bind asm lchk;
        (* accept iff first_index x = j: operands before j reject, j accepts *)
        for i = 0 to j - 1 do
          let lnext = Asm.new_label asm in
          gen_mem kids.(i) ~ltrue:ldec ~lfalse:lnext;
          Asm.bind asm lnext
        done;
        gen_mem cj ~ltrue:lsucc ~lfalse:ldec)
      kids;
    Asm.set_ctx asm n.Plan.id tag_none;
    Asm.bind asm ldec;
    Asm.push asm op_decjnz;
    Asm.push asm ts;
    Asm.push_ref asm ltrial;
    let e = new_exhaust (fun () -> Probe.warn2 union_exhausted trials m) in
    Asm.push asm op_exhaust;
    Asm.push asm e;
    Asm.push asm op_jmp;
    Asm.push_ref asm lfail
  and gen_inter (n : Plan.node) poly_degree budget ~lsucc ~lfail =
    let kids = Array.of_list n.Plan.children in
    let m = Array.length kids in
    let ndim = n.Plan.dim in
    let expect = Cost.rejection_budget ~dim:ndim ~poly_degree ~delta in
    if budget <> expect then
      cerr "inter node %d: plan budget %d <> cost model %d" n.Plan.id budget expect;
    let eps = Hashtbl.find eps_of_id n.Plan.id in
    let eps3, sub_delta = Cost.child_grant ~m ~eps ~delta in
    let mirrors = Hashtbl.find kids_of_id n.Plan.id in
    let w = Array.make m 0.0 in
    let thunk rng =
      Array.iteri
        (fun i kid -> w.(i) <- Observable.volume kid rng ~gamma ~eps:eps3 ~delta:sub_delta)
        mirrors
    in
    let ws =
      new_wslot w thunk
        (Printf.sprintf "node %d inter: m=%d eps=%g delta=%g" n.Plan.id m eps3 sub_delta)
    in
    let ts = new_tslot (Printf.sprintf "node %d inter: budget %d" n.Plan.id budget) in
    let jr = new_jreg () in
    Asm.set_ctx asm n.Plan.id tag_none;
    Asm.push asm op_ensure;
    Asm.push asm ws;
    Asm.push asm op_argmin;
    Asm.push asm ws;
    Asm.push asm jr;
    Asm.push asm op_trials;
    Asm.push asm ts;
    Asm.push asm budget;
    let ltrial = Asm.new_label asm in
    Asm.bind asm ltrial;
    Asm.push asm op_tick;
    let ldec = Asm.new_label asm in
    let lchk = Asm.new_label asm in
    let targets = Array.init m (fun _ -> Asm.new_label asm) in
    Asm.push asm op_dispatch;
    Asm.push asm jr;
    Asm.push asm m;
    Array.iter (fun l -> Asm.push_ref asm l) targets;
    Array.iteri
      (fun j cj ->
        Asm.bind asm targets.(j);
        gen_sample cj ~lsucc:lchk ~lfail:ldec)
      kids;
    (* shared accept check: x must lie in every operand *)
    Asm.bind asm lchk;
    let order = mem_order n in
    let reordered = ref false in
    Array.iteri (fun k j -> if k <> j then reordered := true) order;
    let rtag = if !reordered then tag_reordered_mem else tag_none in
    Array.iteri
      (fun k j ->
        if k < m - 1 then begin
          let lnext = Asm.new_label asm in
          gen_mem ~rtag kids.(j) ~ltrue:lnext ~lfalse:ldec;
          Asm.bind asm lnext
        end
        else gen_mem ~rtag kids.(j) ~ltrue:lsucc ~lfalse:ldec)
      order;
    Asm.set_ctx asm n.Plan.id tag_none;
    Asm.bind asm ldec;
    Asm.push asm op_decjnz;
    Asm.push asm ts;
    Asm.push_ref asm ltrial;
    let e = new_exhaust (fun () -> Probe.warn3 inter_exhausted budget m ndim) in
    Asm.push asm op_exhaust;
    Asm.push asm e;
    Asm.push asm op_jmp;
    Asm.push_ref asm lfail
  and gen_diff (n : Plan.node) poly_degree budget ~lsucc ~lfail =
    match n.Plan.children with
    | [ a; b ] ->
        let ndim = n.Plan.dim in
        let expect = Cost.rejection_budget ~dim:ndim ~poly_degree ~delta in
        if budget <> expect then
          cerr "diff node %d: plan budget %d <> cost model %d" n.Plan.id budget expect;
        let ts = new_tslot (Printf.sprintf "node %d diff: budget %d" n.Plan.id budget) in
        Asm.set_ctx asm n.Plan.id tag_none;
        Asm.push asm op_trials;
        Asm.push asm ts;
        Asm.push asm budget;
        let ltrial = Asm.new_label asm in
        Asm.bind asm ltrial;
        Asm.push asm op_tick;
        let ldec = Asm.new_label asm in
        let lchk = Asm.new_label asm in
        gen_sample a ~lsucc:lchk ~lfail:ldec;
        Asm.bind asm lchk;
        gen_mem b ~ltrue:ldec ~lfalse:lsucc;
        Asm.set_ctx asm n.Plan.id tag_none;
        Asm.bind asm ldec;
        Asm.push asm op_decjnz;
        Asm.push asm ts;
        Asm.push_ref asm ltrial;
        let e = new_exhaust (fun () -> Probe.warn2 diff_exhausted budget ndim) in
        Asm.push asm op_exhaust;
        Asm.push asm e;
        Asm.push asm op_jmp;
        Asm.push_ref asm lfail
    | _ -> cerr "diff node %d must have exactly two children" n.Plan.id
  in
  (* Root retry envelope: [Observable.sample_exn]'s schedule. *)
  let root_attempts =
    Stdlib.max 4 (int_of_float (ceil (20.0 *. log (1.0 /. delta))))
  in
  let rt_slot = new_tslot (Printf.sprintf "root: %d retries" root_attempts) in
  Asm.set_ctx asm plan.Plan.root.Plan.id tag_none;
  Asm.push asm op_trials;
  Asm.push asm rt_slot;
  Asm.push asm root_attempts;
  let lattempt = Asm.new_label asm in
  Asm.bind asm lattempt;
  let lemit = Asm.new_label asm and lfail = Asm.new_label asm in
  gen_sample plan.Plan.root ~lsucc:lemit ~lfail;
  Asm.set_ctx asm plan.Plan.root.Plan.id tag_none;
  Asm.bind asm lemit;
  Asm.push asm op_emit;
  Asm.bind asm lfail;
  Asm.push asm op_decjnz;
  Asm.push asm rt_slot;
  Asm.push_ref asm lattempt;
  Asm.push asm op_failroot;
  let code, dbg_node, dbg_tag = Asm.finalize asm in
  (* Per-node ancestry below the root (self last; the root's own path
     is empty): what [exec] pushes around a WALK / trial tick so
     accrual stays inclusive without double-counting the root, which
     [sample_one] already stacks. *)
  let npaths =
    let m = ref plan.Plan.node_count in
    Plan.iter_nodes (fun (n : Plan.node) -> m := Stdlib.max !m (n.Plan.id + 1)) plan;
    !m
  in
  let paths = Array.make npaths [||] in
  let rec build_paths below (n : Plan.node) =
    let below' =
      if n.Plan.id = plan.Plan.root.Plan.id then below else n.Plan.id :: below
    in
    paths.(n.Plan.id) <- Array.of_list (List.rev below');
    List.iter (build_paths below') n.Plan.children
  in
  build_paths [] plan.Plan.root;
  let rev_array l = Array.of_list (List.rev l) in
  let header =
    let b = Buffer.create 256 in
    Buffer.add_string b
      (Printf.sprintf "; vm program (%s engine): %d code words, dim %d, root node %d\n"
         (if opt then "optimized" else "strict")
         (Array.length code) plan.Plan.root.Plan.dim plan.Plan.root.Plan.id);
    Buffer.add_string b
      (Printf.sprintf "; gamma %g, eps %g, delta %g, %d root attempt(s)\n" gamma plan.Plan.eps
         delta root_attempts);
    Array.iteri
      (fun i (p : piece) ->
        Buffer.add_string b
          (Printf.sprintf "; piece %d: dim %d, %s, %d step(s), %d constraint row(s)\n" i
             p.prep.Convex_obs.p_dim (kind_name p.kind) p.steps
             (Polytope.num_constraints p.prep.Convex_obs.p_body)))
      pieces;
    Array.iteri
      (fun i route ->
        match route with
        | Some (_, bound, exact, dfk) ->
            let chosen = exact <= dfk in
            Buffer.add_string b
              (Printf.sprintf
                 "; leaf n%d weight: %s (Lasserre <= %.0f call(s) = %.0f step(s) %s DFK %.0f step(s))\n"
                 leaves.(i).Plan.id
                 (if chosen then exact_weight_tag else "dfk")
                 bound exact
                 (if chosen then "<=" else ">")
                 dfk)
        | None -> ())
      weight_routes;
    List.iteri
      (fun i d -> Buffer.add_string b (Printf.sprintf "; weights w%d: %s\n" i d))
      (List.rev !wdesc);
    List.iteri
      (fun i d -> Buffer.add_string b (Printf.sprintf "; trials t%d: %s\n" i d))
      (List.rev !tdesc);
    Buffer.contents b
  in
  Tel.Counter.incr tel_programs;
  {
    code;
    dbg_node;
    dbg_tag;
    paths;
    fpool = Fb.to_array fpool;
    mtab = Ib.to_array mtab;
    pieces;
    weights = rev_array !weights;
    ready = Array.make (Stdlib.max 1 !nw) false;
    prologues = rev_array !prologues;
    trials = Array.make (Stdlib.max 1 !ntr) 0;
    jregs = Array.make (Stdlib.max 1 !njr) 0;
    exhausts = rev_array !exhausts;
    root_attempts;
    root_id = plan.Plan.root.Plan.id;
    pdim = plan.Plan.root.Plan.dim;
    opt;
    header;
    mirror_obs;
    exact_ids =
      List.filter_map
        (fun i -> Option.map (fun _ -> leaves.(i).Plan.id) (exact_tuple i))
        (List.init nleaf Fun.id);
  }

let compile ?(optimize = false) ~plan ~pieces () =
  match compile_exn optimize plan pieces with
  | t -> Ok t
  | exception Compile_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Disassembly                                                         *)
(* ------------------------------------------------------------------ *)

let width code base =
  match code.(base) with
  | 0 | 1 | 13 -> 1
  | 4 | 9 | 12 | 14 -> 2
  | 2 | 3 | 5 | 6 | 7 -> 3
  | 10 | 11 -> 4
  | 8 -> 3 + code.(base + 2)
  | op -> failwith (Printf.sprintf "vm: bad opcode %d at %d" op base)

let instruction_count t =
  let n = ref 0 and pc = ref 0 in
  while !pc < Array.length t.code do
    incr n;
    pc := !pc + width t.code !pc
  done;
  !n

let instruction_bases t =
  let acc = ref [] and pc = ref 0 in
  while !pc < Array.length t.code do
    acc := !pc :: !acc;
    pc := !pc + width t.code !pc
  done;
  Array.of_list (List.rev !acc)

let rewrite_tags t =
  let tbl = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace tbl id [ exact_weight_tag ]) t.exact_ids;
  Array.iter
    (fun base ->
      match tag_name t.dbg_tag.(base) with
      | None -> ()
      | Some name ->
          let id = t.dbg_node.(base) in
          let cur = Option.value (Hashtbl.find_opt tbl id) ~default:[] in
          if not (List.mem name cur) then Hashtbl.replace tbl id (name :: cur))
    (instruction_bases t);
  List.sort compare
    (Hashtbl.fold (fun id tags acc -> (id, List.sort compare tags) :: acc) tbl [])

let disassemble t =
  let b = Buffer.create 1024 in
  Buffer.add_string b t.header;
  let code = t.code in
  let pc = ref 0 in
  while !pc < Array.length code do
    let base = !pc in
    let line =
      match code.(base) with
      | 0 -> "emit"
      | 1 -> "failroot"
      | 2 -> Printf.sprintf "trials      t%d, %d" code.(base + 1) code.(base + 2)
      | 3 -> Printf.sprintf "decjnz      t%d, @%d" code.(base + 1) code.(base + 2)
      | 4 -> Printf.sprintf "ensure      w%d" code.(base + 1)
      | 5 -> Printf.sprintf "allzero     w%d, @%d" code.(base + 1) code.(base + 2)
      | 6 -> Printf.sprintf "categorical w%d -> j%d" code.(base + 1) code.(base + 2)
      | 7 -> Printf.sprintf "argmin      w%d -> j%d" code.(base + 1) code.(base + 2)
      | 8 ->
          let m = code.(base + 2) in
          Printf.sprintf "dispatch    j%d [%s]" code.(base + 1)
            (String.concat " "
               (List.init m (fun i -> Printf.sprintf "@%d" code.(base + 3 + i))))
      | 9 -> Printf.sprintf "walk        p%d" code.(base + 1)
      | 10 ->
          Printf.sprintf "member      m%d, @%d, @%d" code.(base + 1) code.(base + 2)
            code.(base + 3)
      | 11 ->
          Printf.sprintf "mempoly     p%d, @%d, @%d" code.(base + 1) code.(base + 2)
            code.(base + 3)
      | 12 -> Printf.sprintf "jmp         @%d" code.(base + 1)
      | 13 -> "tick"
      | 14 -> Printf.sprintf "exhaust     e%d" code.(base + 1)
      | op -> Printf.sprintf "bad opcode %d" op
    in
    let annot =
      Printf.sprintf "n%d%s" t.dbg_node.(base)
        (match tag_name t.dbg_tag.(base) with Some s -> " " ^ s | None -> "")
    in
    Buffer.add_string b (Printf.sprintf "%5d: %-36s ; %s\n" base line annot);
    pc := base + width code base
  done;
  Buffer.contents b
