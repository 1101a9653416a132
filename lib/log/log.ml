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
(* The sink                                                            *)
(*                                                                     *)
(* One sink per process: the bounded ring buffer (the flight           *)
(* recorder's last-N tail), the [seq] stamp, the warn/error counters,  *)
(* the stderr mirror and the file.  Its mutex covers stamping, writing *)
(* and the ring, so domains emitting at once interleave whole lines in *)
(* [seq] order, never torn ones.  Level policy is a separate pair of   *)
(* refs (one load on the disabled path).                               *)
(* ------------------------------------------------------------------ *)

let mu = Mutex.create ()
let ring = ref (Array.make 256 "")
let ring_next = ref 0 (* total events pushed since last clear *)
let seq = ref 0
let warns = ref 0
let errors = ref 0
let to_stderr = ref (env_level <> None)
let file : out_channel option ref = ref None
let locked f = Mutex.protect mu f

let set_ring_capacity n =
  locked (fun () ->
      ring := Array.make (Stdlib.max 1 n) "";
      ring_next := 0)

(* With [mu] held. *)
let ring_push line =
  let r = !ring in
  r.(!ring_next mod Array.length r) <- line;
  incr ring_next

let tail () =
  locked (fun () ->
      let r = !ring in
      let cap = Array.length r in
      let n = Stdlib.min !ring_next cap in
      let first = !ring_next - n in
      List.init n (fun i -> r.((first + i) mod cap)))

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

let warn_count () = locked (fun () -> !warns)
let error_count () = locked (fun () -> !errors)

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

(* Stamp, render, write and keep one line under the sink's mutex. *)
let emit level event fields =
  if would_log level then
    locked (fun () ->
        let line = render !seq level event fields in
        incr seq;
        (match level with Warn -> incr warns | Error -> incr errors | Debug | Info -> ());
        if !to_stderr then begin
          output_string stderr line;
          output_char stderr '\n';
          flush stderr
        end;
        (match !file with
        | None -> ()
        | Some oc ->
            output_string oc line;
            output_char oc '\n');
        ring_push line)

let debug event fields = emit Debug event fields
let info event fields = emit Info event fields
let warn event fields = emit Warn event fields
let error event fields = emit Error event fields

(* ------------------------------------------------------------------ *)
(* Sink management                                                     *)
(* ------------------------------------------------------------------ *)

let set_stderr b = locked (fun () -> to_stderr := b)

let close_file () =
  locked (fun () ->
      match !file with
      | None -> ()
      | Some oc ->
          flush oc;
          close_out oc;
          file := None)

let open_file path =
  close_file ();
  locked (fun () -> file := Some (open_out path))

let reset () =
  locked (fun () ->
      seq := 0;
      warns := 0;
      errors := 0;
      Array.fill !ring 0 (Array.length !ring) "";
      ring_next := 0)
