(* `e2e.exe compare A1.json … -- B1.json …`: per workload and metric,
   each side's median and quartiles, and a flag on every difference
   the benchmark counts.  End-to-end metrics use their BENCHMARK.json
   bound, relative to side A's median.  Counts that repeat exactly
   under a fixed seed must be equal as multisets.  Accuracy metrics
   use absolute bounds. *)

module Json = Scdb_trace.Json_min

let accuracy_bounds =
  [ ("rel_err_p90", 0.02); ("contract_miss_frac", 0.03); ("cell_tv", 0.01); ("fail_frac", 0.0) ]

let exact name =
  List.mem name Workloads.counter_ratio_names
  || String.ends_with ~suffix:".calls_per_req" name

type verdict = Ok_ | Better | Regression | Mismatch | Info

let verdict_name = function
  | Ok_ -> "ok"
  | Better -> "better"
  | Regression -> "REGRESSION"
  | Mismatch -> "MISMATCH"
  | Info -> ""

let judge (spec : Spec.t) name a b =
  let _, ma, _ = Stats.quartiles a and _, mb, _ = Stats.quartiles b in
  let e2e = List.find_opt (fun (m : Spec.metric) -> m.Spec.name = name) spec.Spec.end_to_end in
  match e2e with
  | Some { Spec.better; bound = Some bound; _ } ->
      let change = Stats.ratio (mb -. ma) (Float.abs ma) in
      let worse = if better = "higher" then -.change else change in
      if worse > bound then Regression else if worse < -.bound then Better else Ok_
  | _ when exact name ->
      if List.sort Float.compare a = List.sort Float.compare b then Ok_ else Mismatch
  | _ -> (
      match List.assoc_opt name accuracy_bounds with
      | Some bound -> if mb -. ma > bound then Regression else Ok_
      | None -> Info)

let load path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Spec.workloads (Json.parse text)

(* Values of every (workload, metric) across a side's documents. *)
let gather docs =
  let table = Hashtbl.create 256 in
  List.iter
    (fun ws ->
      List.iter
        (fun (w, result) ->
          List.iter
            (fun (m, v) ->
              let key = (w, m) in
              Hashtbl.replace table key (v :: Option.value (Hashtbl.find_opt table key) ~default:[]))
            (Spec.metric_values result))
        ws)
    docs;
  table

(* Rows of (workload, metric, A values, B values, verdict), in
   BENCHMARK.json order. *)
let rows spec docs_a docs_b =
  let a = gather docs_a and b = gather docs_b in
  let names =
    List.map (fun (m : Spec.metric) -> m.Spec.name) (spec.Spec.end_to_end @ spec.Spec.per_layer)
  in
  let workloads =
    List.sort_uniq compare (Hashtbl.fold (fun (w, _) _ acc -> w :: acc) a [])
    |> List.filter (fun w -> List.exists (fun n -> Hashtbl.mem b (w, n)) names)
  in
  List.concat_map
    (fun w ->
      List.filter_map
        (fun n ->
          match (Hashtbl.find_opt a (w, n), Hashtbl.find_opt b (w, n)) with
          | Some va, Some vb -> Some (w, n, va, vb, judge spec n va vb)
          | _ -> None)
        names)
    workloads

let flagged rows = List.filter (fun (_, _, _, _, v) -> v = Regression || v = Mismatch) rows

let print rows =
  Printf.printf "%-12s %-34s %-30s %-30s %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "verdict";
  List.iter
    (fun (w, n, va, vb, v) ->
      let side vs =
        let q1, m, q3 = Stats.quartiles vs in
        Printf.sprintf "%.6g [%.6g, %.6g]" m q1 q3
      in
      Printf.printf "%-12s %-34s %-30s %-30s %s\n" w n (side va) (side vb) (verdict_name v))
    rows

let main ~bench args =
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  match split [] args with
  | [], _ | _, [] ->
      prerr_endline "usage: e2e.exe compare A1.json [A2.json …] -- B1.json [B2.json …]";
      2
  | fa, fb ->
      let rows = rows (Spec.read bench) (List.map load fa) (List.map load fb) in
      print rows;
      let bad = flagged rows in
      Printf.printf "%d metric(s) compared, %d flagged\n" (List.length rows) (List.length bad);
      if bad = [] then 0 else 1
