module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module Json = Scdb_json.Json

type level = Debug | Info | Warn | Error

let priority = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn" | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

(* SPATIALDB_LOG=warn enables stderr logging at that level; any other
   non-empty, non-"0" value means Info. *)
let env_level =
  match Sys.getenv_opt "SPATIALDB_LOG" with
  | None | Some "" | Some "0" -> None
  | Some s -> Some (Option.value ~default:Info (level_of_string s))

let enabled_flag = ref (env_level <> None)
let min_priority = ref (priority (Option.value ~default:Info env_level))

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b
let set_level l = min_priority := priority l

let level () =
  if !min_priority <= 0 then Debug
  else if !min_priority = 1 then Info
  else if !min_priority = 2 then Warn
  else Error

let would_log l = !enabled_flag && priority l >= !min_priority

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(*                                                                     *)
(* A sink bundles what one event stream owns: the bounded ring buffer  *)
(* (the flight recorder's last-N tail, capacity fixed at sink          *)
(* creation), the event count and the warn/error counters.  Where the  *)
(* rendered lines go is a separate value, the sink's output: the       *)
(* stderr mirror, the file and the [seq] stamp.  A root sink owns its  *)
(* output; a child sink (an observability context's) writes through    *)
(* its parent's, so a context's events reach the parent's stderr and   *)
(* file as they happen, numbered in one sequence.  The output's mutex  *)
(* covers stamping and writing, so sinks on different domains sharing  *)
(* one output interleave whole lines in [seq] order, never torn ones.  *)
(* Lock order: sink, then output.  Level policy stays process-global   *)
(* (one load on the disabled path).                                    *)
(* ------------------------------------------------------------------ *)

type output = {
  o_mu : Mutex.t;
  mutable o_seq : int;
  mutable o_stderr : bool;
  mutable o_file : out_channel option;
}

type sink = {
  mutable ring : string array;
  mutable ring_next : int; (* total events pushed since last clear *)
  mutable s_seq : int;
  mutable s_warns : int;
  mutable s_errors : int;
  s_mu : Mutex.t;
  s_out : output;
  s_root : bool; (* owns [s_out] *)
}

let make_sink ?(ring_capacity = 256) ?parent ?(stderr_sink = false) () =
  {
    ring = Array.make (Stdlib.max 1 ring_capacity) "";
    ring_next = 0;
    s_seq = 0;
    s_warns = 0;
    s_errors = 0;
    s_mu = Mutex.create ();
    s_out =
      (match parent with
      | Some p -> p.s_out
      | None -> { o_mu = Mutex.create (); o_seq = 0; o_stderr = stderr_sink; o_file = None });
    s_root = parent = None;
  }

let default_sink = make_sink ~stderr_sink:(env_level <> None) ()
let dls_sink : sink Domain.DLS.key = Domain.DLS.new_key (fun () -> default_sink)
let cur () = Domain.DLS.get dls_sink

let with_sink s f =
  let prev = Domain.DLS.get dls_sink in
  Domain.DLS.set dls_sink s;
  Fun.protect ~finally:(fun () -> Domain.DLS.set dls_sink prev) f

let with_lock mu f =
  Mutex.lock mu;
  match f () with
  | v ->
      Mutex.unlock mu;
      v
  | exception e ->
      Mutex.unlock mu;
      raise e

let locked s f = with_lock s.s_mu f

let set_ring_capacity n =
  let s = cur () in
  locked s (fun () ->
      s.ring <- Array.make (Stdlib.max 1 n) "";
      s.ring_next <- 0)

(* With the sink's mutex held. *)
let ring_push s line =
  let r = s.ring in
  r.(s.ring_next mod Array.length r) <- line;
  s.ring_next <- s.ring_next + 1

let tail_of s =
  locked s (fun () ->
      let r = s.ring in
      let cap = Array.length r in
      let n = Stdlib.min s.ring_next cap in
      let first = s.ring_next - n in
      List.init n (fun i -> r.((first + i) mod cap)))

let tail () = tail_of (cur ())

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

type field =
  | F_str of string * string
  | F_int of string * int
  | F_float of string * float
  | F_bool of string * bool

let str k v = F_str (k, v)
let int k v = F_int (k, v)
let float k v = F_float (k, v)
let bool k v = F_bool (k, v)

let warn_count () = (cur ()).s_warns
let error_count () = (cur ()).s_errors

(* With the output's mutex held. *)
let render seq level event fields =
  let field = function
    | F_str (k, v) -> (k, Json.Str v)
    | F_int (k, v) -> (k, Json.Int v)
    | F_float (k, v) -> (k, Json.clamp v)
    | F_bool (k, v) -> (k, Json.Bool v)
  in
  Json.to_line
    (Json.Obj
       [
         ("schema", Json.Str "spatialdb-log/1");
         ("seq", Json.Int seq);
         ("ts", Json.Num (Tel.Clock.now ()));
         ("level", Json.Str (level_name level));
         ("span", Json.Int (Trace.current_id ()));
         ("event", Json.Str event);
         ("fields", Json.Obj (List.map field fields));
       ])

(* Stamp, render and write one line under the output's mutex. *)
let write o level event fields =
  with_lock o.o_mu (fun () ->
      let line = render o.o_seq level event fields in
      o.o_seq <- o.o_seq + 1;
      if o.o_stderr then begin
        output_string stderr line;
        output_char stderr '\n';
        flush stderr
      end;
      (match o.o_file with
      | None -> ()
      | Some oc ->
          output_string oc line;
          output_char oc '\n');
      line)

let emit level event fields =
  if would_log level then begin
    let s = cur () in
    locked s (fun () ->
        let line = write s.s_out level event fields in
        s.s_seq <- s.s_seq + 1;
        (match level with
        | Warn -> s.s_warns <- s.s_warns + 1
        | Error -> s.s_errors <- s.s_errors + 1
        | Debug | Info -> ());
        ring_push s line)
  end

let debug event fields = emit Debug event fields
let info event fields = emit Info event fields
let warn event fields = emit Warn event fields
let error event fields = emit Error event fields

(* ------------------------------------------------------------------ *)
(* Sink management                                                     *)
(* ------------------------------------------------------------------ *)

let set_stderr b = (cur ()).s_out.o_stderr <- b

let close_file () =
  let o = (cur ()).s_out in
  with_lock o.o_mu (fun () ->
      match o.o_file with
      | None -> ()
      | Some oc ->
          flush oc;
          close_out oc;
          o.o_file <- None)

let open_file path =
  close_file ();
  let o = (cur ()).s_out in
  with_lock o.o_mu (fun () -> o.o_file <- Some (open_out path))

let reset () =
  let s = cur () in
  locked s (fun () ->
      s.s_seq <- 0;
      s.s_warns <- 0;
      s.s_errors <- 0;
      Array.fill s.ring 0 (Array.length s.ring) "";
      s.ring_next <- 0;
      if s.s_root then with_lock s.s_out.o_mu (fun () -> s.s_out.o_seq <- 0))

module Sink = struct
  type t = sink

  let create ?ring_capacity ?parent () = make_sink ?ring_capacity ?parent ()
  let tail = tail_of
  let seq s = s.s_seq
  let warn_count s = s.s_warns
  let error_count s = s.s_errors

  (* Merge: append [src]'s ring tail into [dst] (oldest first, subject
     to [dst]'s capacity) and add the event/warn/error counts.  [src]
     is unchanged.  Lock order is dst-then-src; merging is a parent-
     context operation, never concurrent in both directions. *)
  let merge_into ~dst src =
    if dst != src then begin
      let lines = tail_of src in
      let seq, warns, errors =
        locked src (fun () -> (src.s_seq, src.s_warns, src.s_errors))
      in
      locked dst (fun () ->
          List.iter (ring_push dst) lines;
          dst.s_seq <- dst.s_seq + seq;
          dst.s_warns <- dst.s_warns + warns;
          dst.s_errors <- dst.s_errors + errors)
    end
end

let current_sink () = cur ()
