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

(* A span forest: all spans in creation order (reversed), the stack of
   open spans, and the monotonic origin every exported timestamp is
   relative to.  The origin is stamped when the forest is created (and
   re-stamped by [reset]), so a context made late in a long-lived
   process gets timestamps relative to its own birth, not process
   start.  Forests are single-writer: the domain that has one installed
   ({!with_forest}).  Spans are created only on the enabled path; the
   disabled path is one mutable load and a branch, like [Telemetry]'s. *)
type forest = {
  mutable f_all : span list;
  mutable f_stack : span list;
  mutable f_next : int;
  mutable f_epoch : float;
  mutable f_limit : int; (* soft cap on recorded spans *)
}

let make_forest () =
  { f_all = []; f_stack = []; f_next = 0; f_epoch = Tel.Clock.now (); f_limit = 200_000 }

let default_forest = make_forest ()
let dls_forest : forest Domain.DLS.key = Domain.DLS.new_key (fun () -> default_forest)
let cur () = Domain.DLS.get dls_forest

let with_forest f fn =
  let prev = Domain.DLS.get dls_forest in
  Domain.DLS.set dls_forest f;
  Fun.protect ~finally:(fun () -> Domain.DLS.set dls_forest prev) fn

let set_span_limit n = (cur ()).f_limit <- Stdlib.max 0 n
let recording () = !enabled_flag && (let f = cur () in f.f_next < f.f_limit)

let reset () =
  let f = cur () in
  f.f_all <- [];
  f.f_stack <- [];
  f.f_next <- 0;
  f.f_epoch <- Tel.Clock.now ()

let set_enabled b = enabled_flag := b

let counter_snapshot counters =
  List.map (fun c -> (c, Option.value ~default:0 (Tel.counter_value c))) counters

let open_span f ~attrs ~counters name =
  let parent, depth = match f.f_stack with [] -> (-1, 0) | p :: _ -> (p.id, p.depth + 1) in
  let s =
    {
      id = f.f_next;
      parent;
      depth;
      name;
      start_s = Tel.Clock.now ();
      dur_s = -1.0;
      attrs;
      counters0 = counter_snapshot counters;
    }
  in
  f.f_next <- f.f_next + 1;
  f.f_all <- s :: f.f_all;
  f.f_stack <- s :: f.f_stack;
  s

let close_span f s =
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
    f.f_stack <- pop f.f_stack
  end

let span ?(attrs = []) ?(counters = []) name f =
  if not (recording ()) then f ()
  else begin
    let fo = cur () in
    let s = open_span fo ~attrs ~counters name in
    match f () with
    | v ->
        close_span fo s;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        s.attrs <- ("error", Printexc.to_string e) :: s.attrs;
        close_span fo s;
        Printexc.raise_with_backtrace e bt
  end

(* No-closure bracket for kernels: [start] returns the span id (or -1
   when disabled), [finish] closes it.  Zero allocation when disabled. *)
let start name =
  if not (recording ()) then -1 else (open_span (cur ()) ~attrs:[] ~counters:[] name).id

let finish ?(attrs = []) id =
  if id >= 0 then begin
    let f = cur () in
    match List.find_opt (fun s -> s.id = id) f.f_stack with
    | Some s ->
        s.attrs <- List.rev_append attrs s.attrs;
        close_span f s
    | None -> ()
  end

let current_id () = match (cur ()).f_stack with [] -> -1 | s :: _ -> s.id

let add_attr k v =
  if !enabled_flag then
    match (cur ()).f_stack with [] -> () | s :: _ -> s.attrs <- (k, v) :: s.attrs

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

let spans () =
  let f = cur () in
  List.rev_map (view_of f.f_epoch) f.f_all

let count () = List.length (cur ()).f_all

(* ------------------------------------------------------------------ *)
(* Forests as values (observability contexts)                          *)
(* ------------------------------------------------------------------ *)

module Forest = struct
  type t = forest

  let create () = make_forest ()
  let epoch f = f.f_epoch

  (* Splice [src] into [dst] under a fresh synthetic root: ids are
     shifted past [dst]'s id space, [src]'s roots become children of
     the synthetic root and every depth grows by one.  Timestamps are
     absolute monotonic seconds, so re-basing on [dst]'s epoch needs no
     arithmetic.  [src] is left unchanged. *)
  let merge_into ?(name = "merged") ~dst src =
    if dst != src then begin
      let base = dst.f_next in
      let src_spans = List.rev src.f_all in
      let min_start, max_end =
        List.fold_left
          (fun (lo, hi) s ->
            let e = if s.dur_s < 0.0 then s.start_s else s.start_s +. s.dur_s in
            (Float.min lo s.start_s, Float.max hi e))
          (infinity, neg_infinity) src_spans
      in
      let start_s = if src_spans = [] then src.f_epoch else min_start in
      let root =
        {
          id = base;
          parent = -1;
          depth = 0;
          name;
          start_s;
          dur_s = (if src_spans = [] then 0.0 else Float.max 0.0 (max_end -. min_start));
          attrs = [ ("spans", string_of_int (List.length src_spans)) ];
          counters0 = [];
        }
      in
      let shifted =
        List.map
          (fun s ->
            {
              s with
              id = base + 1 + s.id;
              parent = (if s.parent < 0 then base else base + 1 + s.parent);
              depth = s.depth + 1;
              attrs = s.attrs;
            })
          src_spans
      in
      dst.f_all <- List.rev_append (root :: shifted) dst.f_all;
      dst.f_next <- base + 1 + src.f_next
    end

  let spans f = List.rev_map (view_of f.f_epoch) f.f_all
end

let current_forest () = cur ()

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
