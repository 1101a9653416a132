(* In-memory spans recorded around the benchmark's own calls into each
   library layer.  Nothing inside lib/ is instrumented: a span's
   boundary is the public function the benchmark calls, so a layer's
   self time is the part of its call not covered by a nested span. *)

module Clock = Scdb_telemetry.Telemetry.Clock

type span = {
  id : int;
  name : string;
  req : int;  (** request index the span belongs to *)
  parent : int;  (** enclosing span id, [-1] for a request root *)
  t0 : float;
  t1 : float;
  words : float;  (** minor-heap words allocated inside the span *)
}

(* The layers, outermost first.  [request] is the root of every
   request; its self time is the part no layer span covers, so the
   self shares of one workload sum to 1. *)
let layers =
  [
    "request";
    "constr.parse";
    "qe.eliminate";
    "constr.dnf";
    "core.prepare";
    "plan.build";
    "vm.compile";
    "core.observe";
    "draw.first";
    "draw.rest";
    "core.volume";
    "gis.compile";
  ]

let enabled = ref false
let recorded : span list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0
let current_req = ref (-1)

let reset () =
  recorded := [];
  open_ids := [];
  next_id := 0;
  current_req := -1

let span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let words0 = Gc.minor_words () in
    let t0 = Clock.now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Clock.now () in
        let words = Gc.minor_words () -. words0 in
        open_ids := List.tl !open_ids;
        recorded := { id; name; req = !current_req; parent; t0; t1; words } :: !recorded)
  end

let request i f =
  current_req := i;
  span "request" f

let spans () = List.rev !recorded

(* Per-layer figures over the spans of [n_req] requests:
   [<layer>.self_share], [.ms_p50], [.calls_per_req], [.alloc_kw_per_call]. *)
let layer_metrics spans ~n_req =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let prev = Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0 in
        Hashtbl.replace child_time s.parent (prev +. (s.t1 -. s.t0))
      end)
    spans;
  let self s = s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0 in
  let request_time =
    List.fold_left (fun acc s -> if s.name = "request" then acc +. (s.t1 -. s.t0) else acc) 0.0 spans
  in
  List.concat_map
    (fun layer ->
      let mine = List.filter (fun s -> s.name = layer) spans in
      let calls = float_of_int (List.length mine) in
      let self_total = List.fold_left (fun acc s -> acc +. self s) 0.0 mine in
      let words = List.fold_left (fun acc s -> acc +. s.words) 0.0 mine in
      [
        (layer ^ ".self_share", "1", Stats.ratio self_total request_time);
        (layer ^ ".ms_p50", "ms", 1000.0 *. Stats.median (List.map (fun s -> s.t1 -. s.t0) mine));
        (layer ^ ".calls_per_req", "count", Stats.ratio calls (float_of_int n_req));
        (layer ^ ".alloc_kw_per_call", "kword", Stats.ratio words calls /. 1000.0);
      ])
    layers

(* Time to first point: request start to the end of its [draw.first]
   span, over the requests that drew points. *)
let ttfp spans =
  let starts = Hashtbl.create 64 in
  List.iter (fun s -> if s.name = "request" then Hashtbl.replace starts s.req s.t0) spans;
  List.filter_map
    (fun s ->
      if s.name = "draw.first" then Option.map (fun t0 -> s.t1 -. t0) (Hashtbl.find_opt starts s.req)
      else None)
    spans

let write_json path spans =
  let oc = open_out path in
  output_string oc "{\"schema\": \"spatialdb-e2e-spans/1\", \"spans\": [";
  List.iteri
    (fun k s ->
      Printf.fprintf oc
        "%s\n  {\"id\": %d, \"name\": \"%s\", \"req\": %d, \"parent\": %d, \"start_ns\": %.0f, \
         \"end_ns\": %.0f, \"minor_words\": %.0f}"
        (if k = 0 then "" else ",")
        s.id s.name s.req s.parent (s.t0 *. 1e9) (s.t1 *. 1e9) s.words)
    spans;
  output_string oc "\n]}\n";
  close_out oc
