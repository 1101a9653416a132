module Tel = Scdb_telemetry.Telemetry
module Json = Scdb_json.Json

let enabled_flag =
  ref
    (match Sys.getenv_opt "SPATIALDB_TRACE" with
    | Some "" | Some "0" | None -> false
    | Some _ -> true)

let enabled () = !enabled_flag

type span = {
  id : int;
  parent : int; (* -1 for roots *)
  depth : int;
  name : string;
  start_s : float; (* monotonic seconds *)
  mutable dur_s : float; (* < 0 while open *)
  mutable attrs : (string * string) list;
  counters0 : (string * int) list; (* telemetry snapshot at open *)
}

(* The span store: all spans in creation order (reversed), the stack
   of open spans, and the monotonic origin every exported timestamp is
   relative to (stamped at startup and by [reset]).  Spans record only
   on the main domain, so the store has one writer; the disabled path
   is one mutable load and a branch, like [Telemetry]'s. *)
let all : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let epoch = ref (Tel.Clock.now ())
let limit = ref 200_000 (* soft cap on recorded spans *)

let set_span_limit n = limit := Stdlib.max 0 n
let recording () = !enabled_flag && Domain.is_main_domain () && !next_id < !limit

let reset () =
  all := [];
  stack := [];
  next_id := 0;
  epoch := Tel.Clock.now ()

let set_enabled b = enabled_flag := b

let counter_snapshot counters =
  List.map (fun c -> (c, Option.value ~default:0 (Tel.counter_value c))) counters

let open_span ~attrs ~counters name =
  let parent, depth = match !stack with [] -> (-1, 0) | p :: _ -> (p.id, p.depth + 1) in
  let s =
    {
      id = !next_id;
      parent;
      depth;
      name;
      start_s = Tel.Clock.now ();
      dur_s = -1.0;
      attrs;
      counters0 = counter_snapshot counters;
    }
  in
  incr next_id;
  all := s :: !all;
  stack := s :: !stack;
  s

let close_span s =
  if s.dur_s < 0.0 then begin
    s.dur_s <- Tel.Clock.now () -. s.start_s;
    List.iter
      (fun (c, v0) ->
        match Tel.counter_value c with
        | Some v -> s.attrs <- (c, string_of_int (v - v0)) :: s.attrs
        | None -> ())
      s.counters0;
    (* Pop down to [s]; anything deeper was left open by a non-local
       exit and is closed with the same end time. *)
    let rec pop = function
      | [] -> []
      | x :: rest ->
          if x.id = s.id then rest
          else begin
            if x.dur_s < 0.0 then x.dur_s <- s.start_s +. s.dur_s -. x.start_s;
            pop rest
          end
    in
    stack := pop !stack
  end

let span ?(attrs = []) ?(counters = []) name f =
  if not (recording ()) then f ()
  else begin
    let s = open_span ~attrs ~counters name in
    match f () with
    | v ->
        close_span s;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        s.attrs <- ("error", Printexc.to_string e) :: s.attrs;
        close_span s;
        Printexc.raise_with_backtrace e bt
  end

(* No-closure bracket for kernels: [start] returns the span id (or -1
   when disabled), [finish] closes it.  Zero allocation when disabled. *)
let start name = if not (recording ()) then -1 else (open_span ~attrs:[] ~counters:[] name).id

let finish ?(attrs = []) id =
  if id >= 0 then
    match List.find_opt (fun s -> s.id = id) !stack with
    | Some s ->
        s.attrs <- List.rev_append attrs s.attrs;
        close_span s
    | None -> ()

(* Other domains record no spans, so they see no open one. *)
let current_id () =
  if not (Domain.is_main_domain ()) then -1 else match !stack with [] -> -1 | s :: _ -> s.id

let add_attr k v =
  if !enabled_flag && Domain.is_main_domain () then
    match !stack with [] -> () | s :: _ -> s.attrs <- (k, v) :: s.attrs

let add_attr_int k v = if !enabled_flag then add_attr k (string_of_int v)
let add_attr_float k v = if !enabled_flag then add_attr k (Printf.sprintf "%.6g" v)

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

type view = {
  v_id : int;
  v_parent : int;
  v_depth : int;
  v_name : string;
  v_ts_us : float;
  v_dur_us : float;
  v_attrs : (string * string) list;
}

let view_of epoch s =
  let dur = if s.dur_s < 0.0 then Tel.Clock.now () -. s.start_s else s.dur_s in
  {
    v_id = s.id;
    v_parent = s.parent;
    v_depth = s.depth;
    v_name = s.name;
    v_ts_us = Float.max 0.0 ((s.start_s -. epoch) *. 1e6);
    v_dur_us = Float.max 0.0 (dur *. 1e6);
    v_attrs = List.rev s.attrs;
  }

let spans () = List.rev_map (view_of !epoch) !all
let count () = List.length !all

(* Chrome trace-event format: an object with a [traceEvents] array of
   complete ("ph":"X") events, microsecond timestamps.  Loads in
   chrome://tracing and Perfetto. *)
let to_chrome_json () =
  let event v =
    let args =
      if v.v_attrs = [] then []
      else [ ("args", Json.Obj (List.map (fun (k, a) -> (k, Json.Str a)) v.v_attrs)) ]
    in
    Json.Obj
      ([
         ("name", Json.Str v.v_name);
         ("cat", Json.Str "spatialdb");
         ("ph", Json.Str "X");
         ("pid", Json.Int 1);
         ("tid", Json.Int 1);
         ("ts", Json.Num v.v_ts_us);
         ("dur", Json.Num v.v_dur_us);
       ]
      @ args)
  in
  Json.Obj
    [ ("displayTimeUnit", Json.Str "ms"); ("traceEvents", Json.Arr (List.map event (spans ()))) ]

let to_text_tree () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun v ->
      let indent = String.make (2 * v.v_depth) ' ' in
      let label = indent ^ v.v_name in
      Buffer.add_string buf (Printf.sprintf "%-48s %10.3f ms" label (v.v_dur_us /. 1e3));
      List.iter (fun (k, value) -> Buffer.add_string buf (Printf.sprintf "  %s=%s" k value)) v.v_attrs;
      Buffer.add_char buf '\n')
    (spans ());
  Buffer.contents buf
