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
  | Dfk of {
      method_ : string;
      walk_steps : int;
      phases : int;
      samples_per_phase : int;
      constraints : int;
      lasserre_calls : float option;
      box_trials : float option;
      exact_build : float option;
    }
  | Union_op of { trials : int; volume_trials : int }

type node = {
  id : int;
  op : op;
  dim : int;
  per_sample : units;
  per_volume : units;
  children : node list;
  tags : string list;
}

let exact_weight = "exact_weight"
let exact_sampler = "exact_sampler"
let rejection_box_substituted = "rejection_box_substituted"

let op_name = function Dfk _ -> "dfk" | Union_op _ -> "union"

type task = Sample of int | Volume | Report of int

(* ------------------------------------------------------------------ *)
(* Exclusive (own-node) cost of one generator call / one volume call.  *)
(* ------------------------------------------------------------------ *)

(* [m] is the child count; the estimates mirror the combinators:
   Union draws one categorical index per trial and re-tests first_index
   against all m operands.  The child generator calls these trials
   trigger are charged to the children by the budget recursion, not
   here.  A dfk leaf
   tagged [exact_weight] prices its volume as its Lasserre bound in
   walk steps.  A box leaf's trials are its exact acceptance where the
   optimizing pass knew its volume; an exact-lattice draw is one trial. *)
let exclusive ?(tags = []) op ~dim ~m =
  let f = float_of_int in
  match op with
  | Dfk { method_; walk_steps; phases; samples_per_phase; lasserre_calls; box_trials; _ } ->
      let s = f walk_steps in
      let per_sample =
        match method_ with
        | "grid" -> { draws = 3.0 *. s; mems = s; steps = s; trials = 0.0 }
        | "rejection" ->
            let t =
              match box_trials with Some t -> t | None -> f (Cost.rejection_box_trials ~dim)
            in
            { draws = t *. f dim; mems = t; steps = 0.0; trials = t }
        | "exact" -> { draws = 2.0 *. f dim; mems = 0.0; steps = 0.0; trials = 1.0 }
        | _ -> { draws = s *. f (dim + 1); mems = s; steps = s; trials = 0.0 }
      in
      let per_volume =
        match lasserre_calls with
        | Some calls when List.mem exact_weight tags ->
            { zero with steps = calls *. Cost.walk_steps_per_lasserre_call }
        | _ ->
            (* The multi-phase estimator always walks (hit-and-run, or
               the lattice walk under the grid sampler): q·spp
               warm-started walks of the same length as a generator
               call. *)
            let n = f (phases * samples_per_phase) in
            let draws_per_step = if method_ = "grid" then 3.0 else f (dim + 1) in
            { draws = n *. s *. draws_per_step; mems = n *. s; steps = n *. s; trials = 0.0 }
      in
      (per_sample, per_volume)
  | Union_op { trials; volume_trials } ->
      let t = f trials and n = f volume_trials in
      ( { draws = t; mems = t *. f m; steps = 0.0; trials = t },
        { draws = n; mems = n *. f m; steps = 0.0; trials = n } )

let weight_costs n =
  match n.op with
  | Dfk { walk_steps; phases; samples_per_phase; lasserre_calls = Some calls; _ } ->
      Some
        ( calls *. Cost.walk_steps_per_lasserre_call,
          float_of_int phases *. float_of_int samples_per_phase *. float_of_int walk_steps )
  | _ -> None

let draw_costs ~calls n =
  match n.op with
  | Dfk { walk_steps; box_trials; exact_build = Some build; _ } ->
      Some
        ( build +. (calls *. Cost.walk_steps_per_exact_draw),
          calls *. float_of_int walk_steps,
          Option.map (fun t -> calls *. t) box_trials )
  | _ -> None

let sum_children f children = List.fold_left (fun acc c -> add_units acc (f c)) zero children

(* Inclusive cost from the node's own op and tags plus its children's
   inclusive costs: a union that makes [trials] child generator calls
   per call of its own and [volume_trials] per volume estimate spreads
   them over its operands. *)
let reprice n =
  let m = List.length n.children in
  let excl_s, excl_v = exclusive ~tags:n.tags n.op ~dim:n.dim ~m in
  let per_sample, per_volume =
    match n.op with
    | Dfk _ -> (excl_s, excl_v)
    | Union_op { trials; volume_trials } ->
        let fm = float_of_int (Stdlib.max 1 m) in
        let sum_ps = sum_children (fun c -> c.per_sample) n.children in
        let sum_pv = sum_children (fun c -> c.per_volume) n.children in
        ( add_units excl_s (scale_units (float_of_int trials /. fm) sum_ps),
          add_units excl_v
            (add_units (scale_units (float_of_int volume_trials /. fm) sum_ps) sum_pv) )
  in
  { n with per_sample; per_volume }

let node ?(children = []) op ~dim =
  reprice { id = -1; op; dim; per_sample = zero; per_volume = zero; children; tags = [] }

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

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
  node ~dim
    (Dfk
       {
         method_;
         walk_steps;
         phases;
         samples_per_phase;
         constraints;
         lasserre_calls = None;
         box_trials = None;
         exact_build = None;
       })

let union_ ~eps ~delta children =
  if children = [] then invalid_arg "Plan.union_: empty list";
  let m = List.length children in
  let trials = Cost.union_trials ~m ~delta in
  let volume_trials =
    Cost.stopping_trials ~eps:(eps /. 3.0) ~delta:(delta /. 4.0) ~p_lower:(1.0 /. float_of_int m)
  in
  node ~children ~dim:(List.hd children).dim (Union_op { trials; volume_trials })

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
   a union performs (its operand weights) appear as a volume demand of
   1 per child whenever the node runs. *)
let child_demands op ~m ~s ~v children =
  match op with
  | Dfk _ -> []
  | Union_op { trials; volume_trials } ->
      let once = if s > 0.0 || v > 0.0 then 1.0 else 0.0 in
      let calls =
        ((float_of_int trials *. s) +. (float_of_int volume_trials *. v))
        /. float_of_int (Stdlib.max 1 m)
      in
      List.map (fun c -> (c, calls, once)) children

let task_demand = function
  | Sample n -> (float_of_int n, 0.0)
  | Volume -> (0.0, 1.0)
  | Report n -> (float_of_int n, 1.0)

(* Visit every node with its demand: [s] generator calls and [v]
   volume estimations for one run of [task]; returns [f]'s value at the
   root, [f] given the sum of its children's values. *)
let rec fold_demands f n ~s ~v =
  let m = List.length n.children in
  let below =
    List.fold_left
      (fun acc (c, s_c, v_c) -> acc +. fold_demands f c ~s:s_c ~v:v_c)
      0.0
      (child_demands n.op ~m ~s ~v n.children)
  in
  f n ~s ~v ~below

let finalize ~gamma ~eps ~delta ~task node =
  let next = ref 0 in
  let root = number next node in
  let node_count = !next in
  let budgets = Array.make node_count 0.0 in
  let fill n ~s ~v ~below =
    let excl_s, excl_v = exclusive ~tags:n.tags n.op ~dim:n.dim ~m:(List.length n.children) in
    let total = (s *. work excl_s) +. (v *. work excl_v) +. below in
    budgets.(n.id) <- total;
    total
  in
  let s, v = task_demand task in
  let total_work = fold_demands fill root ~s ~v in
  { gamma; eps; delta; task; root; node_count; budgets; total_work }

let sample_calls t =
  let calls = Array.make t.node_count 0.0 in
  let s, v = task_demand t.task in
  ignore
    (fold_demands
       (fun n ~s ~v:_ ~below:_ ->
         calls.(n.id) <- s;
         0.0)
       t.root ~s ~v);
  calls

let rec iter_node f n =
  f n;
  List.iter (iter_node f) n.children

let iter_nodes f t = iter_node f t.root

let work_budgets t =
  let rows = Array.make t.node_count (0, "", 0.0) in
  iter_nodes (fun n -> rows.(n.id) <- (n.id, op_name n.op, t.budgets.(n.id))) t;
  rows

let find_node t id =
  let found = ref None in
  iter_nodes (fun n -> if n.id = id then found := Some n) t;
  !found

type budget_grant = { g_id : int; g_op : string; g_eps : float; g_delta : float }

(* The volume-path (ε,δ) splits, mirroring how Union.volume threads
   its accuracy parameters down: the grant of a node is the contract
   its own estimation phase must satisfy, the children's grants are
   the sub-contracts it hands them. *)
let error_budget t =
  let rows = ref [] in
  let rec go node eps delta =
    let m = List.length node.children in
    let (self_eps, self_delta), child_grant =
      match node.op with
      | Dfk _ -> ((eps, delta), (eps, delta))
      | Union_op _ ->
          (* Algorithm 1: child volumes at ε/3, δ/(4m); the node's own
             acceptance-fraction phase at ε/3, δ/4. *)
          ((eps /. 3.0, delta /. 4.0), Cost.child_grant ~m ~eps ~delta)
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
  | Dfk
      { walk_steps; phases; samples_per_phase; constraints; lasserre_calls; box_trials; exact_build; _ }
    ->
      let opt name = Option.fold ~none:[] ~some:(fun c -> [ (name, c) ]) in
      [
        ("walk_steps", float_of_int walk_steps);
        ("phases", float_of_int phases);
        ("samples_per_phase", float_of_int samples_per_phase);
        ("constraints", float_of_int constraints);
      ]
      @ opt "lasserre_calls" lasserre_calls
      @ opt "box_trials" box_trials
      @ opt "exact_build" exact_build
  | Union_op { trials; volume_trials } ->
      [ ("trials", float_of_int trials); ("volume_trials", float_of_int volume_trials) ]

let units_json u =
  Json.Obj
    [
      ("draws", Json.Num u.draws);
      ("mems", Json.Num u.mems);
      ("steps", Json.Num u.steps);
      ("trials", Json.Num u.trials);
      ("work", Json.Num (work u));
    ]

(* The route a priced leaf's weight takes, with both prices in walk
   steps. *)
let weight_route n =
  Option.map
    (fun (exact, dfk) ->
      ((if List.mem exact_weight n.tags then exact_weight else "dfk"), exact, dfk))
    (weight_costs n)

let draw_route ~calls n =
  Option.map
    (fun (exact, walk, box) ->
      let route =
        if List.mem exact_sampler n.tags then exact_sampler
        else match n.op with Dfk { method_; _ } -> method_ | _ -> ""
      in
      (route, exact, walk, box))
    (draw_costs ~calls n)

let task_fields = function
  | Sample n -> ("sample", n)
  | Volume -> ("volume", 0)
  | Report n -> ("report", n)

let to_json t =
  let calls = sample_calls t in
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
          ("tags", Json.strs n.tags);
        ]
      @ Option.fold ~none:[]
          ~some:(fun (route, exact, dfk) ->
            [
              ( "weight",
                Json.Obj
                  [
                    ("route", Json.Str route);
                    ("exact_steps", Json.Num exact);
                    ("dfk_steps", Json.Num dfk);
                  ]
              );
            ])
          (weight_route n)
      @ Option.fold ~none:[]
          ~some:(fun (route, exact, walk, box) ->
            [
              ( "draws",
                Json.Obj
                  ([
                     ("route", Json.Str route);
                     ("calls", Json.Num calls.(n.id));
                     ("exact_steps", Json.Num exact);
                     ("walk_steps", Json.Num walk);
                   ]
                  @ Option.fold ~none:[] ~some:(fun b -> [ ("box_steps", Json.Num b) ]) box) );
            ])
          (draw_route ~calls:calls.(n.id) n)
      @ [ ("children", Json.Arr (List.map node_json n.children)) ])
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
              lasserre_calls = Json.field "attrs" (Json.field_opt "lasserre_calls" Json.num) o;
              box_trials = Json.field "attrs" (Json.field_opt "box_trials" Json.num) o;
              exact_build = Json.field "attrs" (Json.field_opt "exact_build" Json.num) o;
            }
      | "union" -> Union_op { trials = a "trials"; volume_trials = a "volume_trials" }
      | other -> Json.fail "unknown op %S" other
    in
    {
      id;
      op;
      dim = Json.field "dim" Json.int o;
      per_sample = Json.field "per_sample" units_of o;
      per_volume = Json.field "per_volume" units_of o;
      children = Json.field "children" (Json.list read_node) o;
      tags = Option.value ~default:[] (Json.field_opt "tags" (Json.list Json.str) o);
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
  let calls = sample_calls t in
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
    let weight =
      match weight_route n with
      | Some (route, exact, dfk) ->
          Printf.sprintf " weight=%s(lasserre %.3g %s dfk %.3g steps)" route exact
            (if exact <= dfk then "<=" else ">")
            dfk
      | None -> ""
    in
    let draws =
      match draw_route ~calls:calls.(n.id) n with
      | Some (route, exact, walk, box) ->
          Printf.sprintf " draws=%s(%.3g calls: exact %.3g, walk %.3g%s steps)" route calls.(n.id)
            exact walk
            (match box with Some b -> Printf.sprintf ", box %.3g" b | None -> "")
      | None -> ""
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%s%s #%d dim=%d%s%s  sample=%.3g volume=%.3g budget=%.3g%s%s%s\n" prefix
         branch (op_name n.op) n.id n.dim meth
         (if attrs = "" then "" else " [" ^ attrs ^ "]")
         (work n.per_sample) (work n.per_volume) t.budgets.(n.id) weight draws
         (if n.tags = [] then "" else " tags=" ^ String.concat "," n.tags));
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
