module Json = Scdb_json.Json

type units = { draws : float; mems : float; steps : float; trials : float }

let work u = u.steps +. u.trials
let zero = { draws = 0.0; mems = 0.0; steps = 0.0; trials = 0.0 }

let add_units a b =
  {
    draws = a.draws +. b.draws;
    mems = a.mems +. b.mems;
    steps = a.steps +. b.steps;
    trials = a.trials +. b.trials;
  }

let scale_units k u =
  { draws = k *. u.draws; mems = k *. u.mems; steps = k *. u.steps; trials = k *. u.trials }

type op =
  | Dfk of { method_ : string; walk_steps : int; phases : int; samples_per_phase : int; constraints : int }
  | Grid_leaf of { cells : float }
  | Union_op of { trials : int; volume_trials : int }
  | Inter_op of { poly_degree : int; budget : int; volume_trials : int }
  | Diff_op of { poly_degree : int; budget : int; volume_trials : int }
  | Project_op of { keep : int; trials : int; pilot : int; volume_trials : int }
  | Boost_op of { runs : int }
  | Guard

type node = {
  id : int;
  op : op;
  dim : int;
  per_sample : units;
  per_volume : units;
  children : node list;
}

let op_name = function
  | Dfk _ -> "dfk"
  | Grid_leaf _ -> "grid"
  | Union_op _ -> "union"
  | Inter_op _ -> "inter"
  | Diff_op _ -> "diff"
  | Project_op _ -> "project"
  | Boost_op _ -> "boost"
  | Guard -> "guard"

type task = Sample of int | Volume | Report of int

(* ------------------------------------------------------------------ *)
(* Exclusive (own-node) cost of one generator call / one volume call.  *)
(* ------------------------------------------------------------------ *)

(* [m] is the child count; the estimates mirror the combinators:
   Union draws one categorical index per trial and re-tests first_index
   against all m operands, Inter tests all m memberships per trial,
   Diff tests the single guard, Project pays one acceptance draw per
   trial.  The child generator calls these trials trigger are charged
   to the children by the budget recursion, not here. *)
let exclusive op ~dim ~m =
  let f = float_of_int in
  match op with
  | Dfk { method_; walk_steps; phases; samples_per_phase; constraints = _ } ->
      let s = f walk_steps in
      let per_sample =
        match method_ with
        | "grid" -> { draws = 3.0 *. s; mems = s; steps = s; trials = 0.0 }
        | "rejection" ->
            let t = f (Cost.rejection_box_trials ~dim) in
            { draws = t *. f dim; mems = t; steps = 0.0; trials = t }
        | _ -> { draws = s *. f (dim + 1); mems = s; steps = s; trials = 0.0 }
      in
      (* The multi-phase estimator always walks (hit-and-run, or the
         lattice walk under the grid sampler): q·spp warm-started walks
         of the same length as a generator call. *)
      let n = f (phases * samples_per_phase) in
      let draws_per_step = if method_ = "grid" then 3.0 else f (dim + 1) in
      let per_volume =
        { draws = n *. s *. draws_per_step; mems = n *. s; steps = n *. s; trials = 0.0 }
      in
      (per_sample, per_volume)
  | Grid_leaf { cells } ->
      (* Sampling from a built decomposition is one categorical draw;
         building it scans every candidate cell once (a membership test
         per cell), amortized over the run. *)
      ({ zero with draws = 1.0 }, { zero with mems = cells })
  | Union_op { trials; volume_trials } ->
      let t = f trials and n = f volume_trials in
      ( { draws = t; mems = t *. f m; steps = 0.0; trials = t },
        { draws = n; mems = n *. f m; steps = 0.0; trials = n } )
  | Inter_op { budget; volume_trials; _ } ->
      let b = f budget and n = f volume_trials in
      ( { draws = 0.0; mems = b *. f m; steps = 0.0; trials = b },
        { draws = 0.0; mems = n *. f m; steps = 0.0; trials = n } )
  | Diff_op { budget; volume_trials; _ } ->
      let b = f budget and n = f volume_trials in
      ( { draws = 0.0; mems = b; steps = 0.0; trials = b },
        { draws = 0.0; mems = n; steps = 0.0; trials = n } )
  | Project_op { trials; volume_trials; _ } ->
      let t = f trials and n = f volume_trials in
      ( { draws = t; mems = t; steps = 0.0; trials = t },
        { draws = 0.0; mems = 0.0; steps = 0.0; trials = n } )
  | Boost_op _ | Guard -> (zero, zero)

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let sum_children f children = List.fold_left (fun acc c -> add_units acc (f c)) zero children

let dfk ~eps ~delta ~dim ?(method_ = "walk") ?(constraints = 0) ?volume_budget () =
  let walk_steps =
    match method_ with
    | "grid" -> Cost.lattice_steps ~dim ~eps
    | _ -> Cost.hit_and_run_steps ~dim
  in
  let phases = Cost.volume_phases ~dim () in
  let samples_per_phase =
    match volume_budget with
    | Some n -> n
    | None -> Cost.volume_samples_per_phase ~eps ~delta ~phases
  in
  let op = Dfk { method_; walk_steps; phases; samples_per_phase; constraints } in
  let per_sample, per_volume = exclusive op ~dim ~m:0 in
  { id = -1; op; dim; per_sample; per_volume; children = [] }

let grid_leaf ~dim ~cells =
  let op = Grid_leaf { cells } in
  let per_sample, per_volume = exclusive op ~dim ~m:0 in
  { id = -1; op; dim; per_sample; per_volume; children = [] }

let union_ ~eps ~delta children =
  if children = [] then invalid_arg "Plan.union_: empty list";
  let m = List.length children in
  let dim = (List.hd children).dim in
  let trials = Cost.union_trials ~m ~delta in
  let volume_trials =
    Cost.stopping_trials ~eps:(eps /. 3.0) ~delta:(delta /. 4.0) ~p_lower:(1.0 /. float_of_int m)
  in
  let op = Union_op { trials; volume_trials } in
  let excl_s, excl_v = exclusive op ~dim ~m in
  let sum_ps = sum_children (fun c -> c.per_sample) children in
  let sum_pv = sum_children (fun c -> c.per_volume) children in
  let t = float_of_int trials and n = float_of_int volume_trials in
  let fm = float_of_int m in
  let per_sample = add_units excl_s (scale_units (t /. fm) sum_ps) in
  let per_volume = add_units excl_v (add_units (scale_units (n /. fm) sum_ps) sum_pv) in
  { id = -1; op; dim; per_sample; per_volume; children }

let fraction_trials ~eps ~delta ~dim ~poly_degree =
  Stdlib.min Cost.fraction_trials_cap
    (Cost.stopping_trials ~eps:(eps /. 2.0) ~delta:(delta /. 4.0)
       ~p_lower:(Cost.poly_floor ~dim ~poly_degree))

let inter_ ?(poly_degree = 3) ~eps ~delta children =
  if children = [] then invalid_arg "Plan.inter_: empty list";
  let m = List.length children in
  let dim = (List.hd children).dim in
  let budget = Cost.rejection_budget ~dim ~poly_degree ~delta in
  let volume_trials = fraction_trials ~eps ~delta ~dim ~poly_degree in
  let op = Inter_op { poly_degree; budget; volume_trials } in
  let excl_s, excl_v = exclusive op ~dim ~m in
  let sum_ps = sum_children (fun c -> c.per_sample) children in
  let sum_pv = sum_children (fun c -> c.per_volume) children in
  let b = float_of_int budget and n = float_of_int volume_trials in
  let fm = float_of_int m in
  let per_sample = add_units excl_s (scale_units (b /. fm) sum_ps) in
  let per_volume = add_units excl_v (add_units (scale_units (n /. fm) sum_ps) sum_pv) in
  { id = -1; op; dim; per_sample; per_volume; children }

let diff_ ?(poly_degree = 3) ~eps ~delta a b =
  let dim = a.dim in
  let budget = Cost.rejection_budget ~dim ~poly_degree ~delta in
  let volume_trials = fraction_trials ~eps ~delta ~dim ~poly_degree in
  let op = Diff_op { poly_degree; budget; volume_trials } in
  let excl_s, excl_v = exclusive op ~dim ~m:2 in
  let bf = float_of_int budget and n = float_of_int volume_trials in
  let per_sample = add_units excl_s (scale_units bf a.per_sample) in
  let per_volume =
    add_units excl_v (add_units (scale_units n a.per_sample) a.per_volume)
  in
  { id = -1; op; dim; per_sample; per_volume; children = [ a; b ] }

let project_ ~eps ~delta ~keep child =
  (* The runtime's retry budget is calibrated by a 32-draw pilot; the
     static stand-in assumes acceptance 1/4 (the c/4 deflation of the
     pilot quantile), giving 2/(1/4)·ln(1/δ) trials clamped to the
     runtime's own [64, 50000] window. *)
  let trials =
    Stdlib.min 50_000
      (Stdlib.max 64 (int_of_float (ceil (8.0 *. log (1.0 /. delta)))))
  in
  let pilot = 32 in
  let blocks = Stdlib.max 3 (int_of_float (ceil (4.0 *. log (2.0 /. delta)))) in
  let block_size = Stdlib.max 16 (int_of_float (ceil (9.0 /. (eps *. eps)))) in
  let volume_trials = blocks * block_size in
  let op = Project_op { keep; trials; pilot; volume_trials } in
  let excl_s, excl_v = exclusive op ~dim:keep ~m:1 in
  let t = float_of_int trials and n = float_of_int volume_trials in
  let per_sample = add_units excl_s (scale_units t child.per_sample) in
  let per_volume =
    add_units excl_v (add_units (scale_units n child.per_sample) child.per_volume)
  in
  { id = -1; op; dim = keep; per_sample; per_volume; children = [ child ] }

let boost_ ~delta child =
  let runs = Cost.boost_runs ~delta in
  {
    id = -1;
    op = Boost_op { runs };
    dim = child.dim;
    per_sample = child.per_sample;
    per_volume = scale_units (float_of_int runs) child.per_volume;
    children = [ child ];
  }

let guard ~dim = { id = -1; op = Guard; dim; per_sample = zero; per_volume = zero; children = [] }

(* ------------------------------------------------------------------ *)
(* Finalized plans: preorder ids and per-run budgets                   *)
(* ------------------------------------------------------------------ *)

type t = {
  gamma : float;
  eps : float;
  delta : float;
  task : task;
  root : node;
  node_count : int;
  budgets : float array;
  total_work : float;
}

let rec number next n =
  let id = !next in
  incr next;
  let children = List.map (number next) n.children in
  { n with id; children }

(* Demand on each child given a demand of [s] generator calls and [v]
   volume estimations on the node.  The one-time child volume estimates
   a combinator performs (operand weights, smallest-operand selection)
   appear as a volume demand of 1 per child whenever the node runs. *)
let child_demands op ~m ~s ~v children =
  let executed = s > 0.0 || v > 0.0 in
  let once = if executed then 1.0 else 0.0 in
  let fm = float_of_int (Stdlib.max 1 m) in
  match op with
  | Dfk _ | Grid_leaf _ | Guard -> []
  | Union_op { trials; volume_trials } ->
      let calls = ((float_of_int trials *. s) +. (float_of_int volume_trials *. v)) /. fm in
      List.map (fun c -> (c, calls, once)) children
  | Inter_op { budget; volume_trials; _ } ->
      let calls = ((float_of_int budget *. s) +. (float_of_int volume_trials *. v)) /. fm in
      List.map (fun c -> (c, calls, once)) children
  | Diff_op { budget; volume_trials; _ } -> (
      match children with
      | [ a; g ] ->
          let calls = (float_of_int budget *. s) +. (float_of_int volume_trials *. v) in
          [ (a, calls, once); (g, 0.0, 0.0) ]
      | cs -> List.map (fun c -> (c, 0.0, 0.0)) cs)
  | Project_op { trials; pilot; volume_trials; _ } -> (
      match children with
      | [ c ] ->
          let calls =
            (float_of_int trials *. s)
            +. (float_of_int volume_trials *. v)
            +. (float_of_int pilot *. once)
          in
          [ (c, calls, v) ]
      | cs -> List.map (fun c -> (c, 0.0, 0.0)) cs)
  | Boost_op { runs } -> (
      match children with
      | [ c ] -> [ (c, s, float_of_int runs *. v) ]
      | cs -> List.map (fun c -> (c, 0.0, 0.0)) cs)

let finalize ~gamma ~eps ~delta ~task node =
  let next = ref 0 in
  let root = number next node in
  let node_count = !next in
  let budgets = Array.make node_count 0.0 in
  let rec fill n ~s ~v =
    let m = List.length n.children in
    let excl_s, excl_v = exclusive n.op ~dim:n.dim ~m in
    let own = (s *. work excl_s) +. (v *. work excl_v) in
    let below =
      List.fold_left
        (fun acc (c, s_c, v_c) -> acc +. fill c ~s:s_c ~v:v_c)
        0.0
        (child_demands n.op ~m ~s ~v n.children)
    in
    let total = own +. below in
    budgets.(n.id) <- total;
    total
  in
  let s, v =
    match task with
    | Sample n -> (float_of_int n, 0.0)
    | Volume -> (0.0, 1.0)
    | Report n -> (float_of_int n, 1.0)
  in
  let total_work = fill root ~s ~v in
  { gamma; eps; delta; task; root; node_count; budgets; total_work }

let rec iter_node f n =
  f n;
  List.iter (iter_node f) n.children

let iter_nodes f t = iter_node f t.root

let budget_rows t =
  let rows = Array.make t.node_count (0, "", 0.0) in
  iter_nodes (fun n -> rows.(n.id) <- (n.id, op_name n.op, t.budgets.(n.id))) t;
  rows

let find_node t id =
  let found = ref None in
  iter_nodes (fun n -> if n.id = id then found := Some n) t;
  !found

type budget_grant = { g_id : int; g_op : string; g_eps : float; g_delta : float }

(* The volume-path (ε,δ) splits, mirroring how the runtime combinators
   thread their accuracy parameters down (Union.volume, Inter.volume,
   Diff.volume, Project, Boost in lib/core): the grant of a node is
   the contract its own estimation phase must satisfy, the children's
   grants are the sub-contracts it hands them.  Guards are
   membership-only and carry no grant (nan). *)
let error_budget t =
  let rows = ref [] in
  let rec go node eps delta =
    let m = List.length node.children in
    let (self_eps, self_delta), child_grant =
      match node.op with
      | Dfk _ | Grid_leaf _ -> ((eps, delta), (eps, delta))
      | Union_op _ ->
          (* Algorithm 1: child volumes at ε/3, δ/(4m); the node's own
             acceptance-fraction phase at ε/3, δ/4. *)
          ((eps /. 3.0, delta /. 4.0), Cost.child_grant ~m ~eps ~delta)
      | Inter_op _ ->
          ((eps /. 2.0, delta /. 4.0), (eps /. 2.0, delta /. float_of_int (4 * m)))
      | Diff_op _ -> ((eps /. 2.0, delta /. 4.0), (eps /. 2.0, delta /. 4.0))
      | Project_op _ -> ((eps /. 3.0, delta /. 3.0), (eps /. 3.0, delta /. 3.0))
      | Boost_op _ ->
          (* Median boosting: each run is only 3/4-confident. *)
          ((eps, delta), (eps, 0.25))
      | Guard -> ((Float.nan, Float.nan), (Float.nan, Float.nan))
    in
    rows := { g_id = node.id; g_op = op_name node.op; g_eps = self_eps; g_delta = self_delta } :: !rows;
    let ce, cd = child_grant in
    List.iter (fun c -> go c ce cd) node.children
  in
  go t.root t.eps t.delta;
  let arr = Array.of_list !rows in
  Array.sort (fun a b -> compare a.g_id b.g_id) arr;
  arr

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let schema = "spatialdb-plan/1"

let attrs_of_op op =
  match op with
  | Dfk { walk_steps; phases; samples_per_phase; constraints; _ } ->
      [
        ("walk_steps", float_of_int walk_steps);
        ("phases", float_of_int phases);
        ("samples_per_phase", float_of_int samples_per_phase);
        ("constraints", float_of_int constraints);
      ]
  | Grid_leaf { cells } -> [ ("cells", cells) ]
  | Union_op { trials; volume_trials } ->
      [ ("trials", float_of_int trials); ("volume_trials", float_of_int volume_trials) ]
  | Inter_op { poly_degree; budget; volume_trials }
  | Diff_op { poly_degree; budget; volume_trials } ->
      [
        ("poly_degree", float_of_int poly_degree);
        ("budget", float_of_int budget);
        ("volume_trials", float_of_int volume_trials);
      ]
  | Project_op { keep; trials; pilot; volume_trials } ->
      [
        ("keep", float_of_int keep);
        ("trials", float_of_int trials);
        ("pilot", float_of_int pilot);
        ("volume_trials", float_of_int volume_trials);
      ]
  | Boost_op { runs } -> [ ("runs", float_of_int runs) ]
  | Guard -> []

let units_json u =
  Json.Obj
    [
      ("draws", Json.Num u.draws);
      ("mems", Json.Num u.mems);
      ("steps", Json.Num u.steps);
      ("trials", Json.Num u.trials);
      ("work", Json.Num (work u));
    ]

let task_fields = function
  | Sample n -> ("sample", n)
  | Volume -> ("volume", 0)
  | Report n -> ("report", n)

let to_json t =
  let rec node_json n =
    let method_ =
      match n.op with Dfk { method_; _ } -> [ ("method", Json.Str method_) ] | _ -> []
    in
    Json.Obj
      ([ ("id", Json.Int n.id); ("op", Json.Str (op_name n.op)); ("dim", Json.Int n.dim) ]
      @ method_
      @ [
          ("attrs", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) (attrs_of_op n.op)));
          ("per_sample", units_json n.per_sample);
          ("per_volume", units_json n.per_volume);
          ("budget", Json.Num t.budgets.(n.id));
          ("children", Json.Arr (List.map node_json n.children));
        ])
  in
  let task_name, n = task_fields t.task in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("task", Json.Str task_name);
      ("n", Json.Int n);
      ("gamma", Json.Num t.gamma);
      ("eps", Json.Num t.eps);
      ("delta", Json.Num t.delta);
      ("node_count", Json.Int t.node_count);
      ("total_work", Json.Num t.total_work);
      ("root", node_json t.root);
    ]

let of_json doc =
  let units_of o =
    {
      draws = Json.field "draws" Json.num o;
      mems = Json.field "mems" Json.num o;
      steps = Json.field "steps" Json.num o;
      trials = Json.field "trials" Json.num o;
    }
  in
  Json.catch @@ fun () ->
  Json.schema schema doc;
  let node_count = Json.field "node_count" Json.int doc in
  if node_count <= 0 then Json.fail "node_count must be positive";
  let budgets = Array.make node_count 0.0 in
  let seen = Array.make node_count false in
  let rec read_node o =
    let id = Json.field "id" Json.int o in
    if id < 0 || id >= node_count then Json.fail "node id %d out of range" id;
    if seen.(id) then Json.fail "duplicate node id %d" id;
    seen.(id) <- true;
    budgets.(id) <- Json.field "budget" Json.num o;
    let a name = Json.field "attrs" (Json.field name Json.int) o in
    let op =
      match Json.field "op" Json.str o with
      | "dfk" ->
          Dfk
            {
              method_ = Json.field "method" Json.str o;
              walk_steps = a "walk_steps";
              phases = a "phases";
              samples_per_phase = a "samples_per_phase";
              constraints = a "constraints";
            }
      | "grid" -> Grid_leaf { cells = Json.field "attrs" (Json.field "cells" Json.num) o }
      | "union" -> Union_op { trials = a "trials"; volume_trials = a "volume_trials" }
      | "inter" ->
          Inter_op
            { poly_degree = a "poly_degree"; budget = a "budget"; volume_trials = a "volume_trials" }
      | "diff" ->
          Diff_op
            { poly_degree = a "poly_degree"; budget = a "budget"; volume_trials = a "volume_trials" }
      | "project" ->
          Project_op
            { keep = a "keep"; trials = a "trials"; pilot = a "pilot"; volume_trials = a "volume_trials" }
      | "boost" -> Boost_op { runs = a "runs" }
      | "guard" -> Guard
      | other -> Json.fail "unknown op %S" other
    in
    {
      id;
      op;
      dim = Json.field "dim" Json.int o;
      per_sample = Json.field "per_sample" units_of o;
      per_volume = Json.field "per_volume" units_of o;
      children = Json.field "children" (Json.list read_node) o;
    }
  in
  let root = Json.field "root" read_node doc in
  if Array.exists not seen then Json.fail "node ids are not contiguous";
  let task =
    match (Json.field "task" Json.str doc, Json.field "n" Json.int doc) with
    | "sample", n -> Sample n
    | "volume", _ -> Volume
    | "report", n -> Report n
    | other, _ -> Json.fail "unknown task %S" other
  in
  {
    gamma = Json.field "gamma" Json.num doc;
    eps = Json.field "eps" Json.num doc;
    delta = Json.field "delta" Json.num doc;
    task;
    root;
    node_count;
    budgets;
    total_work = Json.field "total_work" Json.num doc;
  }

(* ------------------------------------------------------------------ *)
(* Text tree                                                           *)
(* ------------------------------------------------------------------ *)

let to_text_tree t =
  let buf = Buffer.create 1024 in
  let task_name, n = task_fields t.task in
  Buffer.add_string buf
    (Printf.sprintf "plan %s (n=%d, γ=%g ε=%g δ=%g) — total predicted work %.3g\n" task_name n
       t.gamma t.eps t.delta t.total_work);
  let rec render prefix is_last n =
    let branch = if is_last then "└─ " else "├─ " in
    let attrs =
      String.concat " "
        (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) (attrs_of_op n.op))
    in
    let meth = match n.op with Dfk { method_; _ } -> " method=" ^ method_ | _ -> "" in
    Buffer.add_string buf
      (Printf.sprintf "%s%s%s #%d dim=%d%s%s  sample=%.3g volume=%.3g budget=%.3g\n" prefix
         branch (op_name n.op) n.id n.dim meth
         (if attrs = "" then "" else " [" ^ attrs ^ "]")
         (work n.per_sample) (work n.per_volume) t.budgets.(n.id));
    let prefix' = prefix ^ if is_last then "   " else "│  " in
    let rec go = function
      | [] -> ()
      | [ c ] -> render prefix' true c
      | c :: rest ->
          render prefix' false c;
          go rest
    in
    go n.children
  in
  render "" true t.root;
  Buffer.contents buf
