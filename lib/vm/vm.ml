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

(* The exhaust handler: the interpreter's warning event, counted in
   [vm.exhausted]. *)
let union_exhausted =
  Probe.warning ~counter:"vm.exhausted" "union.exhausted" (fun trials operands ->
      [ Probe.int "trials" trials; Probe.int "operands" operands ])

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
let op_dispatch = 7
let op_walk = 8
let op_member = 9
let op_mempoly = 10
let op_jmp = 11
let op_tick = 12
let op_exhaust = 13
let num_opcodes = 14

let opcode_name = function
  | 0 -> "emit"
  | 1 -> "failroot"
  | 2 -> "trials"
  | 3 -> "decjnz"
  | 4 -> "ensure"
  | 5 -> "allzero"
  | 6 -> "categorical"
  | 7 -> "dispatch"
  | 8 -> "walk"
  | 9 -> "member"
  | 10 -> "mempoly"
  | 11 -> "jmp"
  | 12 -> "tick"
  | 13 -> "exhaust"
  | op -> Printf.sprintf "op%d" op

(* One execution counter per opcode ([vm.op.<name>]).  Ticked
   unconditionally in [exec] — the disabled-telemetry path is one load
   and a branch. *)
let op_counters = Array.init num_opcodes (fun i -> Tel.Counter.make ("vm.op." ^ opcode_name i))

exception Compile_error of string

let cerr fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Growable pools and the label-backpatching assembler                 *)
(* ------------------------------------------------------------------ *)

(* A growable array; [push] returns the pushed value's index. *)
module Buf = struct
  type 'a t = { mutable a : 'a array; mutable n : int }

  let create x = { a = Array.make 64 x; n = 0 }

  let push b v =
    if b.n = Array.length b.a then b.a <- Array.append b.a b.a;
    b.a.(b.n) <- v;
    b.n <- b.n + 1;
    b.n - 1

  let len b = b.n
  let to_array b = Array.sub b.a 0 b.n
end

module Asm = struct
  type t = {
    code : int Buf.t;
    dbgn : int Buf.t;  (* debug info: originating plan-node id per code word *)
    mutable ctx_node : int;  (* current emission context, set by the gen functions *)
    mutable lbls : int array;
    mutable nlbl : int;
    mutable patches : int list;
  }

  let create () =
    {
      code = Buf.create 0;
      dbgn = Buf.create 0;
      ctx_node = 0;
      lbls = Array.make 64 (-1);
      nlbl = 0;
      patches = [];
    }

  let set_ctx a node = a.ctx_node <- node

  let push a v =
    ignore (Buf.push a.code v);
    ignore (Buf.push a.dbgn a.ctx_node)

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

  let bind a l = a.lbls.(l) <- Buf.len a.code

  (* Emit a label reference: the label id is written now and replaced
     by the bound address in [finalize]. *)
  let push_ref a l =
    a.patches <- Buf.len a.code :: a.patches;
    push a l

  let finalize a =
    let code = Buf.to_array a.code in
    List.iter
      (fun pos ->
        let l = code.(pos) in
        if l < 0 || l >= a.nlbl || a.lbls.(l) < 0 then
          cerr "vm: unbound label %d at code offset %d" l pos;
        code.(pos) <- a.lbls.(l))
      a.patches;
    (code, Buf.to_array a.dbgn)
end

(* ------------------------------------------------------------------ *)
(* Compiled pieces: one per convex leaf                                *)
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
  node_tags : string list array;  (* per node id: the plan node's rewrite tags *)
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
  plan : Plan.t;  (* the plan this program lowers *)
}

let optimized t = t.opt
let dim t = t.pdim
let mirror t = t.mirror_obs
let plan t = t.plan
let code_words t = Array.length t.code
let node_at t pc = t.dbg_node.(pc)

(* The one rewrite that shapes instructions: a substituted leaf's walk
   and membership code.  An exact weight is spent in the parent's
   ensure, through the leaf's observable. *)
let tag_at t pc =
  if List.mem Plan.rejection_box_substituted t.node_tags.(t.dbg_node.(pc)) then
    Some Plan.rejection_box_substituted
  else None
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
       | 7 (* DISPATCH *) -> pc := code.(base + 3 + t.jregs.(code.(base + 1)))
       | 8 (* WALK *) ->
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
       | 9 (* MEMBER *) ->
           (match prof with
           | Some p when p.ptiming ->
               let t0 = Tel.Clock.now () in
               let r = mem_rows t code.(base + 1) !x in
               charge p base t0;
               pc := (if r then code.(base + 2) else code.(base + 3))
           | _ ->
               pc := (if mem_rows t code.(base + 1) !x then code.(base + 2) else code.(base + 3)))
       | 10 (* MEMPOLY *) ->
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
       | 11 (* JMP *) -> pc := code.(base + 1)
       | 12 (* TICK *) ->
           Probe.trials_on trial (Array.unsafe_get t.paths (Array.unsafe_get t.dbg_node base)) 1;
           pc := base + 1
       | 13 (* EXHAUST *) ->
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

let kind_name = function
  | K_hr -> "hit-and-run"
  | K_grid _ -> "grid-walk"
  | K_rej _ -> "rejection-box"

(* Pack a relation's membership test: [ntuples; per tuple: natoms; per
   atom: op, nterms, const-idx, (var, coeff-idx)×nterms], with the
   float row [Term.eval_float] evaluates. *)
let pack_relation mtab fpool r =
  let word v = ignore (Buf.push mtab v) in
  let tuples = Relation.tuples r in
  let off = Buf.push mtab (List.length tuples) in
  List.iter
    (fun tuple ->
      word (List.length tuple);
      List.iter
        (fun (atom : Atom.t) ->
          let coeffs, constant = Term.float_row atom.Atom.term in
          word (match atom.Atom.op with Atom.Le -> 0 | Atom.Lt -> 1 | Atom.Eq -> 2);
          word (List.length coeffs);
          word (Buf.push fpool constant);
          List.iter
            (fun (v, c) ->
              word v;
              word (Buf.push fpool c))
            coeffs)
        tuple)
    tuples;
  off

let compile_exn opt (plan : Plan.t) (prepared : Convex_obs.prepared array) =
  (match plan.Plan.task with
  | Plan.Sample _ | Plan.Report _ -> ()
  | _ -> cerr "vm compiles sampling plans only");
  let delta = plan.Plan.delta and gamma = plan.Plan.gamma in
  (* Preorder leaves; binds piece [i] to the i-th dfk leaf. *)
  let acc = ref [] in
  let rec collect (n : Plan.node) =
    match n.Plan.op with
    | Plan.Dfk _ -> acc := n :: !acc
    | Plan.Union_op _ -> List.iter collect n.Plan.children
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
  (* One piece per leaf, its sampler named by the leaf's plan method;
     the walk schedule is checked against the cost model. *)
  let leaf_piece i (n : Plan.node) =
    let p = prepared.(i) in
    let d = p.Convex_obs.p_dim in
    if n.Plan.dim <> d then
      cerr "leaf %d (node %d): plan dim %d <> piece dim %d" i n.Plan.id n.Plan.dim d;
    let cfg = p.Convex_obs.p_config in
    match n.Plan.op with
    | Plan.Dfk { method_; walk_steps; _ } ->
        let sampler = Rewrite.sampler_of_method method_ in
        let hr_steps = Rewrite.hr_steps p in
        let eps = Hashtbl.find eps_of_id n.Plan.id in
        let steps =
          match (cfg.Convex_obs.walk_steps, sampler) with
          | Some s, _ -> s
          | None, Convex_obs.Grid_walk -> Walk.default_steps ~dim:d ~eps
          | None, (Convex_obs.Hit_and_run | Convex_obs.Rejection_box) -> hr_steps
        in
        if cfg.Convex_obs.walk_steps = None && steps <> walk_steps then
          cerr "leaf %d (node %d): plan walk_steps %d <> cost model %d at eps %g" i n.Plan.id
            walk_steps steps eps;
        let kind =
          match sampler with
          | Convex_obs.Grid_walk -> K_grid (Grid.step_for ~gamma ~dim:d ~scale:p.Convex_obs.p_r_sup)
          | Convex_obs.Hit_and_run -> K_hr
          | Convex_obs.Rejection_box -> (
              match Lazy.force p.Convex_obs.p_box with
              | None -> K_hr
              | Some (lo, hi) -> K_rej { rlo = lo; rhi = hi })
        in
        make_piece p kind ~steps ~hr_steps
    | _ -> assert false
  in
  let pieces = Array.mapi leaf_piece leaves in
  let mtab = Buf.create 0 and fpool = Buf.create 0.0 in
  let moff =
    Array.map
      (fun (p : Convex_obs.prepared) ->
        match p.Convex_obs.p_relation with
        | Some r -> pack_relation mtab fpool r
        | None -> -1)
      prepared
  in
  (* The weight prologues estimate volumes through the plan's
     observables, the interpreter's own estimators (and caches), so
     the draw sequences coincide; [report --engine vm*] runs its volume
     estimate through the root's. *)
  let mirrors = Rewrite.observables plan prepared in
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
  let exhausts = ref [] and nex = ref 0 in
  (* Code generation: each block runs with the point register as its
     only value state and exits through [lsucc] (point accepted) or
     [lfail] (this node declared failure, the interpreter's [None]). *)
  let rec gen_sample (n : Plan.node) ~lsucc ~lfail =
    match n.Plan.op with
    | Plan.Dfk _ ->
        Asm.set_ctx asm n.Plan.id;
        Asm.push asm op_walk;
        Asm.push asm (Hashtbl.find ord_of_id n.Plan.id);
        Asm.push asm op_jmp;
        Asm.push_ref asm lsucc
    | Plan.Union_op { trials; _ } -> gen_union n trials ~lsucc ~lfail
    | _ -> assert false
  and gen_mem (n : Plan.node) ~ltrue ~lfalse =
    match n.Plan.op with
    | Plan.Dfk _ ->
        let i = Hashtbl.find ord_of_id n.Plan.id in
        Asm.set_ctx asm n.Plan.id;
        if moff.(i) >= 0 then begin
          Asm.push asm op_member;
          Asm.push asm moff.(i)
        end
        else begin
          Asm.push asm op_mempoly;
          Asm.push asm i
        end;
        Asm.push_ref asm ltrue;
        Asm.push_ref asm lfalse
    | Plan.Union_op _ ->
        (* exists: first accepting child wins *)
        let rec go = function
          | [] -> ()
          | [ c ] -> gen_mem c ~ltrue ~lfalse
          | c :: rest ->
              let lnext = Asm.new_label asm in
              gen_mem c ~ltrue ~lfalse:lnext;
              Asm.bind asm lnext;
              go rest
        in
        go n.Plan.children
    | _ -> assert false
  and gen_union (n : Plan.node) trials ~lsucc ~lfail =
    let kids = Array.of_list n.Plan.children in
    let m = Array.length kids in
    let expect = Cost.union_trials ~m ~delta in
    if trials <> expect then
      cerr "union node %d: plan trials %d <> cost model %d" n.Plan.id trials expect;
    let eps = Hashtbl.find eps_of_id n.Plan.id in
    let eps3, sub_delta = Cost.child_grant ~m ~eps ~delta in
    let w = Array.make m 0.0 in
    let thunk rng =
      Array.iteri
        (fun i (c : Plan.node) ->
          w.(i) <- Observable.volume mirrors.(c.Plan.id) rng ~gamma ~eps:eps3 ~delta:sub_delta)
        kids
    in
    let ws =
      new_wslot w thunk
        (Printf.sprintf "node %d union: m=%d eps=%g delta=%g" n.Plan.id m eps3 sub_delta)
    in
    let ts = new_tslot (Printf.sprintf "node %d union: %d trials" n.Plan.id trials) in
    let jr = !njr in
    incr njr;
    Asm.set_ctx asm n.Plan.id;
    Asm.push asm op_ensure;
    Asm.push asm ws;
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
    Asm.set_ctx asm n.Plan.id;
    Asm.bind asm ldec;
    Asm.push asm op_decjnz;
    Asm.push asm ts;
    Asm.push_ref asm ltrial;
    let e = !nex in
    incr nex;
    exhausts := (fun () -> Probe.warn2 union_exhausted trials m) :: !exhausts;
    Asm.push asm op_exhaust;
    Asm.push asm e;
    Asm.push asm op_jmp;
    Asm.push_ref asm lfail
  in
  (* Root retry envelope: [Observable.sample_exn]'s schedule. *)
  let root_attempts =
    Stdlib.max 4 (int_of_float (ceil (20.0 *. log (1.0 /. delta))))
  in
  let rt_slot = new_tslot (Printf.sprintf "root: %d retries" root_attempts) in
  Asm.set_ctx asm plan.Plan.root.Plan.id;
  Asm.push asm op_trials;
  Asm.push asm rt_slot;
  Asm.push asm root_attempts;
  let lattempt = Asm.new_label asm in
  Asm.bind asm lattempt;
  let lemit = Asm.new_label asm and lfail = Asm.new_label asm in
  gen_sample plan.Plan.root ~lsucc:lemit ~lfail;
  Asm.set_ctx asm plan.Plan.root.Plan.id;
  Asm.bind asm lemit;
  Asm.push asm op_emit;
  Asm.bind asm lfail;
  Asm.push asm op_decjnz;
  Asm.push asm rt_slot;
  Asm.push_ref asm lattempt;
  Asm.push asm op_failroot;
  let code, dbg_node = Asm.finalize asm in
  (* Per-node ancestry below the root (self last; the root's own path
     is empty): what [exec] pushes around a WALK / trial tick so
     accrual stays inclusive without double-counting the root, which
     [sample_one] already stacks. *)
  let paths = Array.make plan.Plan.node_count [||] in
  let rec build_paths below (n : Plan.node) =
    let below' =
      if n.Plan.id = plan.Plan.root.Plan.id then below else n.Plan.id :: below
    in
    paths.(n.Plan.id) <- Array.of_list (List.rev below');
    List.iter (build_paths below') n.Plan.children
  in
  build_paths [] plan.Plan.root;
  let node_tags = Array.make plan.Plan.node_count [] in
  Plan.iter_nodes (fun (n : Plan.node) -> node_tags.(n.Plan.id) <- n.Plan.tags) plan;
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
    Array.iter
      (fun (n : Plan.node) ->
        match (n.Plan.op, Plan.weight_costs n) with
        | Plan.Dfk { lasserre_calls = Some bound; _ }, Some (exact, dfk) ->
            let chosen = List.mem Plan.exact_weight n.Plan.tags in
            Buffer.add_string b
              (Printf.sprintf
                 "; leaf n%d weight: %s (Lasserre <= %.0f call(s) = %.0f step(s) %s DFK %.0f step(s))\n"
                 n.Plan.id
                 (if chosen then Plan.exact_weight else "dfk")
                 bound exact
                 (if exact <= dfk then "<=" else ">")
                 dfk)
        | _ -> ())
      leaves;
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
    node_tags;
    paths;
    fpool = Buf.to_array fpool;
    mtab = Buf.to_array mtab;
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
    mirror_obs = mirrors.(plan.Plan.root.Plan.id);
    plan;
  }

let compile ?(optimize = false) ~plan ~pieces () =
  match compile_exn optimize (if optimize then Rewrite.optimize plan pieces else plan) pieces with
  | t -> Ok t
  | exception (Compile_error m | Invalid_argument m) -> Error m

(* ------------------------------------------------------------------ *)
(* Disassembly                                                         *)
(* ------------------------------------------------------------------ *)

let width code base =
  match code.(base) with
  | 0 | 1 | 12 -> 1
  | 4 | 8 | 11 | 13 -> 2
  | 2 | 3 | 5 | 6 -> 3
  | 9 | 10 -> 4
  | 7 -> 3 + code.(base + 2)
  | op -> failwith (Printf.sprintf "vm: bad opcode %d at %d" op base)

let instruction_bases t =
  let acc = ref [] and pc = ref 0 in
  while !pc < Array.length t.code do
    acc := !pc :: !acc;
    pc := !pc + width t.code !pc
  done;
  Array.of_list (List.rev !acc)

let instruction_count t = Array.length (instruction_bases t)

let rewrite_tags t =
  List.filter (fun (_, tags) -> tags <> [])
    (List.mapi (fun id tags -> (id, tags)) (Array.to_list t.node_tags))

let disassemble t =
  let b = Buffer.create 1024 in
  Buffer.add_string b t.header;
  let code = t.code in
  Array.iter
    (fun base ->
      let line =
        match code.(base) with
        | 0 -> "emit"
        | 1 -> "failroot"
        | 2 -> Printf.sprintf "trials      t%d, %d" code.(base + 1) code.(base + 2)
        | 3 -> Printf.sprintf "decjnz      t%d, @%d" code.(base + 1) code.(base + 2)
        | 4 -> Printf.sprintf "ensure      w%d" code.(base + 1)
        | 5 -> Printf.sprintf "allzero     w%d, @%d" code.(base + 1) code.(base + 2)
        | 6 -> Printf.sprintf "categorical w%d -> j%d" code.(base + 1) code.(base + 2)
        | 7 ->
            let m = code.(base + 2) in
            Printf.sprintf "dispatch    j%d [%s]" code.(base + 1)
              (String.concat " "
                 (List.init m (fun i -> Printf.sprintf "@%d" code.(base + 3 + i))))
        | 8 -> Printf.sprintf "walk        p%d" code.(base + 1)
        | 9 ->
            Printf.sprintf "member      m%d, @%d, @%d" code.(base + 1) code.(base + 2)
              code.(base + 3)
        | 10 ->
            Printf.sprintf "mempoly     p%d, @%d, @%d" code.(base + 1) code.(base + 2)
              code.(base + 3)
        | 11 -> Printf.sprintf "jmp         @%d" code.(base + 1)
        | 12 -> "tick"
        | 13 -> Printf.sprintf "exhaust     e%d" code.(base + 1)
        | op -> Printf.sprintf "bad opcode %d" op
      in
      let annot =
        Printf.sprintf "n%d%s" t.dbg_node.(base)
          (match tag_at t base with Some s -> " " ^ s | None -> "")
      in
      Buffer.add_string b (Printf.sprintf "%5d: %-36s ; %s\n" base line annot))
    (instruction_bases t);
  Buffer.contents b
