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
(* A sink bundles everything one event stream owns: the bounded ring   *)
(* buffer (the flight recorder's last-N tail, capacity fixed at sink   *)
(* creation), the sequence number, the warn/error counters and the     *)
(* output channels.  Each observability context owns a sink; the       *)
(* pre-context globals survive as the default sink every domain starts *)
(* with.  A per-sink mutex serializes emission, so two domains sharing *)
(* one sink interleave whole lines, never torn ones.  Level policy     *)
(* stays process-global (one load on the disabled path).               *)
(* ------------------------------------------------------------------ *)

type sink = {
  mutable ring : string array;
  mutable ring_next : int; (* total events pushed since last clear *)
  mutable s_seq : int;
  mutable s_warns : int;
  mutable s_errors : int;
  s_mu : Mutex.t;
  mutable s_stderr : bool;
  mutable s_file : out_channel option;
}

let make_sink ?(ring_capacity = 256) ?(stderr_sink = false) () =
  {
    ring = Array.make (Stdlib.max 1 ring_capacity) "";
    ring_next = 0;
    s_seq = 0;
    s_warns = 0;
    s_errors = 0;
    s_mu = Mutex.create ();
    s_stderr = stderr_sink;
    s_file = None;
  }

let default_sink = make_sink ~stderr_sink:(env_level <> None) ()
let dls_sink : sink Domain.DLS.key = Domain.DLS.new_key (fun () -> default_sink)
let cur () = Domain.DLS.get dls_sink

let with_sink s f =
  let prev = Domain.DLS.get dls_sink in
  Domain.DLS.set dls_sink s;
  Fun.protect ~finally:(fun () -> Domain.DLS.set dls_sink prev) f

let locked s f =
  Mutex.lock s.s_mu;
  match f () with
  | v ->
      Mutex.unlock s.s_mu;
      v
  | exception e ->
      Mutex.unlock s.s_mu;
      raise e

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

(* With the sink's mutex held. *)
let render s level event fields =
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
         ("seq", Json.Int s.s_seq);
         ("ts", Json.Num (Tel.Clock.now ()));
         ("level", Json.Str (level_name level));
         ("span", Json.Int (Trace.current_id ()));
         ("event", Json.Str event);
         ("fields", Json.Obj (List.map field fields));
       ])

let emit level event fields =
  if would_log level then begin
    let s = cur () in
    locked s (fun () ->
        let line = render s level event fields in
        s.s_seq <- s.s_seq + 1;
        (match level with
        | Warn -> s.s_warns <- s.s_warns + 1
        | Error -> s.s_errors <- s.s_errors + 1
        | Debug | Info -> ());
        ring_push s line;
        if s.s_stderr then begin
          output_string stderr line;
          output_char stderr '\n';
          flush stderr
        end;
        match s.s_file with
        | None -> ()
        | Some oc ->
            output_string oc line;
            output_char oc '\n')
  end

let debug event fields = emit Debug event fields
let info event fields = emit Info event fields
let warn event fields = emit Warn event fields
let error event fields = emit Error event fields

(* ------------------------------------------------------------------ *)
(* Sink management                                                     *)
(* ------------------------------------------------------------------ *)

let set_stderr b = (cur ()).s_stderr <- b

let close_file () =
  let s = cur () in
  locked s (fun () ->
      match s.s_file with
      | None -> ()
      | Some oc ->
          flush oc;
          close_out oc;
          s.s_file <- None)

let open_file path =
  close_file ();
  let s = cur () in
  locked s (fun () -> s.s_file <- Some (open_out path))

let reset () =
  let s = cur () in
  locked s (fun () ->
      s.s_seq <- 0;
      s.s_warns <- 0;
      s.s_errors <- 0;
      Array.fill s.ring 0 (Array.length s.ring) "";
      s.ring_next <- 0)

module Sink = struct
  type t = sink

  let create ?ring_capacity ?stderr () = make_sink ?ring_capacity ?stderr_sink:stderr ()
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
