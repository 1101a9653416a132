module Vm = Scdb_vm.Vm
module Plan = Scdb_plan.Plan
module Json = Scdb_json.Json

type mode = Counting | Timing

let mode_name = function Counting -> "counting" | Timing -> "timing"

type t = {
  prog : Vm.t;
  mode : mode;
  cells : Vm.prof;
  mutable draws : int;
}

let create ?(mode = Counting) prog =
  let n = Vm.code_words prog in
  {
    prog;
    mode;
    cells =
      { Vm.pcounts = Array.make n 0; ptimes = Array.make n 0.0; ptiming = mode = Timing };
    draws = 0;
  }

let mode t = t.mode
let program t = t.prog
let draws t = t.draws

let sample_one t rng =
  t.draws <- t.draws + 1;
  Vm.sample_one ~prof:t.cells t.prog rng

let sample_many t rng ~n =
  t.draws <- t.draws + n;
  Vm.sample_many ~prof:t.cells t.prog rng ~n

(* ------------------------------------------------------------------ *)
(* Folded views                                                        *)
(* ------------------------------------------------------------------ *)

type pc_row = {
  pc : int;
  opcode : string;
  node : int;  (* originating plan-node id (symbolization table) *)
  tag : string option;  (* rewrite provenance, if any *)
  count : int;
  ns : float;  (* 0. in counting mode or for untimed opcodes *)
}

let pc_rows t =
  Array.map
    (fun pc ->
      {
        pc;
        opcode = Vm.opcode_name (Vm.opcode_at t.prog pc);
        node = Vm.node_at t.prog pc;
        tag = Vm.tag_at t.prog pc;
        count = t.cells.Vm.pcounts.(pc);
        ns = t.cells.Vm.ptimes.(pc);
      })
    (Vm.instruction_bases t.prog)

let total_count t = Array.fold_left (fun acc c -> acc + c) 0 t.cells.Vm.pcounts
let total_ns t = Array.fold_left (fun acc v -> acc +. v) 0.0 t.cells.Vm.ptimes

let hot_pcs ?(limit = 10) t =
  let rows = Array.to_list (pc_rows t) in
  let weight r = if r.ns > 0.0 then r.ns else float_of_int r.count in
  let sorted =
    List.sort
      (fun a b ->
        match compare (weight b) (weight a) with 0 -> compare a.pc b.pc | c -> c)
      (List.filter (fun r -> r.count > 0) rows)
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | r :: rest -> r :: take (k - 1) rest
  in
  take limit sorted

type opcode_row = { op_name : string; op_count : int; op_ns : float }

let per_opcode t =
  let counts = Array.make Vm.num_opcodes 0 in
  let ns = Array.make Vm.num_opcodes 0.0 in
  Array.iter
    (fun (r : pc_row) ->
      let op = Vm.opcode_at t.prog r.pc in
      counts.(op) <- counts.(op) + r.count;
      ns.(op) <- ns.(op) +. r.ns)
    (pc_rows t);
  let acc = ref [] in
  for op = Vm.num_opcodes - 1 downto 0 do
    if counts.(op) > 0 then
      acc := { op_name = Vm.opcode_name op; op_count = counts.(op); op_ns = ns.(op) } :: !acc
  done;
  !acc

type node_row = {
  node_id : int;
  instructions : int;  (* instruction executions attributed to the node *)
  node_ns : float;
  tags : string list;  (* the node's rewrite tags ([Vm.rewrite_tags]) *)
}

(* The profile/1 document's [nodes] rollup and trace events: the nodes
   some instruction maps to, ascending id. *)
let per_node t =
  let tbl : (int, int ref * float ref) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (r : pc_row) ->
      let c, s =
        match Hashtbl.find_opt tbl r.node with
        | Some x -> x
        | None ->
            let x = (ref 0, ref 0.0) in
            Hashtbl.add tbl r.node x;
            x
      in
      c := !c + r.count;
      s := !s +. r.ns)
    (pc_rows t);
  let tags = Vm.rewrite_tags t.prog in
  List.sort
    (fun a b -> compare a.node_id b.node_id)
    (Hashtbl.fold
       (fun node_id (c, s) acc ->
         let tags = Option.value (List.assoc_opt node_id tags) ~default:[] in
         { node_id; instructions = !c; node_ns = !s; tags } :: acc)
       tbl [])

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let engine_name t = if Vm.optimized t.prog then "vm-opt" else "vm"

let text_report t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "profile: engine %s, mode %s, %d draw(s), %d instruction(s) executed"
       (engine_name t) (mode_name t.mode) t.draws (total_count t));
  if t.mode = Timing then
    Buffer.add_string b (Printf.sprintf ", %.0f ns profiled" (total_ns t));
  Buffer.add_char b '\n';
  Buffer.add_string b "hot pcs:\n";
  List.iter
    (fun (r : pc_row) ->
      Buffer.add_string b
        (Printf.sprintf "  pc %5d  %-12s n%-3d%-26s count %-10d%s\n" r.pc r.opcode r.node
           (match r.tag with Some s -> " [" ^ s ^ "]" | None -> "")
           r.count
           (if r.ns > 0.0 then Printf.sprintf " %12.0f ns" r.ns else "")))
    (hot_pcs ~limit:10 t);
  Buffer.add_string b "per opcode:\n";
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "  %-12s count %-10d%s\n" r.op_name r.op_count
           (if r.op_ns > 0.0 then Printf.sprintf " %12.0f ns" r.op_ns else "")))
    (per_opcode t);
  Buffer.contents b

(* Chrome trace-event block: one complete event per plan node laid out
   sequentially (ts in µs).  In counting mode durations are the
   instruction counts — a shape view, documented in the args. *)
let trace_events t =
  let ts = ref 0.0 in
  List.map
    (fun (r : node_row) ->
      let dur =
        if t.mode = Timing then r.node_ns /. 1000.0 else float_of_int r.instructions
      in
      let event =
        Json.Obj
          [
            ("name", Json.Str (Printf.sprintf "node %d" r.node_id));
            ("ph", Json.Str "X");
            ("ts", Json.Num !ts);
            ("dur", Json.Num dur);
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
            ( "args",
              Json.Obj
                [
                  ("instructions", Json.Int r.instructions);
                  ("ns", Json.Num r.node_ns);
                  ("tags", Json.strs r.tags);
                  ("unit", Json.Str (if t.mode = Timing then "us" else "instructions"));
                ] );
          ]
      in
      ts := !ts +. dur;
      event)
    (per_node t)

let to_json ?plan t =
  let pc (r : pc_row) =
    Json.Obj
      [
        ("pc", Json.Int r.pc);
        ("opcode", Json.Str r.opcode);
        ("node", Json.Int r.node);
        ("tag", Json.opt (fun s -> Json.Str s) r.tag);
        ("count", Json.Int r.count);
        ("ns", Json.Num r.ns);
      ]
  in
  let opcode r =
    Json.Obj
      [ ("opcode", Json.Str r.op_name); ("count", Json.Int r.op_count); ("ns", Json.Num r.op_ns) ]
  in
  let node (r : node_row) =
    let op =
      match Option.bind plan (fun p -> Plan.find_node p r.node_id) with
      | Some n -> [ ("op", Json.Str (Plan.op_name n.Plan.op)) ]
      | None -> []
    in
    Json.Obj
      ((("id", Json.Int r.node_id) :: op)
      @ [
          ("instructions", Json.Int r.instructions);
          ("ns", Json.Num r.node_ns);
          ("tags", Json.strs r.tags);
        ])
  in
  Json.Obj
    [
      ("schema", Json.Str "spatialdb-profile/1");
      ("engine", Json.Str (engine_name t));
      ("mode", Json.Str (mode_name t.mode));
      ("draws", Json.Int t.draws);
      ("code_words", Json.Int (Vm.code_words t.prog));
      ("instructions", Json.Int (Array.length (Vm.instruction_bases t.prog)));
      ("total_instructions_executed", Json.Int (total_count t));
      ("total_profiled_ns", Json.Num (total_ns t));
      ("pcs", Json.Arr (Array.to_list (Array.map pc (pc_rows t))));
      ("opcodes", Json.Arr (List.map opcode (per_opcode t)));
      ("nodes", Json.Arr (List.map node (per_node t)));
      ("trace", Json.Obj [ ("traceEvents", Json.Arr (trace_events t)) ]);
    ]
