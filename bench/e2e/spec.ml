(* The metric declarations of BENCHMARK.json, read back so that the
   smoke test and the compare tool hold the program to them. *)

module Json = Scdb_trace.Json_min

type metric = { name : string; unit : string; better : string; bound : float option }
type t = { end_to_end : metric list; per_layer : metric list }

let read path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let doc = Json.parse text in
  let str k o = Option.bind (Json.member k o) Json.to_string |> Option.value ~default:"" in
  let metrics key =
    Option.bind (Json.member key doc) Json.to_list
    |> Option.value ~default:[]
    |> List.map (fun o ->
           {
             name = str "name" o;
             unit = str "unit" o;
             better = str "better" o;
             bound = Option.bind (Json.member "bound" o) Json.to_float;
           })
  in
  { end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer" }

(* Metrics of a result document: name → value, per workload. *)
let workloads doc =
  Option.bind (Json.member "workloads" doc) (function Json.Obj ws -> Some ws | _ -> None)
  |> Option.value ~default:[]

let metric_values result =
  match Json.member "metrics" result with
  | Some (Json.Obj ms) ->
      List.filter_map
        (fun (name, m) ->
          Option.map (fun v -> (name, v)) (Option.bind (Json.member "value" m) Json.to_float))
        ms
  | _ -> []
