module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module Log = Scdb_log.Log
module Progress = Scdb_progress.Progress
module Rng = Scdb_rng.Rng
module Json = Scdb_json.Json

(* ------------------------------------------------------------------ *)
(* Contexts                                                            *)
(*                                                                     *)
(* A context bundles the five per-run observability stores — telemetry *)
(* registry, trace span forest, log sink, progress bus and RNG lineage *)
(* table — into one value that a run installs, fills, and merges back  *)
(* into its parent.  The pre-context process globals survive as the    *)
(* [default] context, so every path that never creates a context       *)
(* behaves exactly as before.                                          *)
(* ------------------------------------------------------------------ *)

module Ctx = struct
  type t = {
    name : string;
    reg : Tel.Registry.t;
    forest : Trace.Forest.t;
    sink : Log.Sink.t;
    bus : Progress.Bus.t;
    prov : Rng.Provenance.Table.t;
    created_at : float;
    mutable finished_at : float option;
    mutable ess : float option;
    (* Status-rate bookkeeping, touched only by the status snapshotter. *)
    mutable last_draws : float;
    mutable last_t : float;
  }

  (* Process directory of live contexts, oldest first in [all].  The
     mutex only guards the list; context contents follow each store's
     own single-writer contract. *)
  let dir_mu = Mutex.create ()
  let dir : t list ref = ref []

  let register c =
    Mutex.lock dir_mu;
    dir := c :: !dir;
    Mutex.unlock dir_mu;
    c

  let make ~name ~reg ~forest ~sink ~bus ~prov =
    let now = Tel.Clock.now () in
    {
      name;
      reg;
      forest;
      sink;
      bus;
      prov;
      created_at = now;
      finished_at = None;
      ess = None;
      last_draws = 0.0;
      last_t = now;
    }

  (* Built at module initialization on the initial domain, before any
     context can have been installed, so the ambient stores really are
     the process defaults. *)
  let default =
    register
      (make ~name:"default" ~reg:Tel.Registry.default
         ~forest:(Trace.current_forest ()) ~sink:(Log.current_sink ())
         ~bus:(Progress.current_bus ())
         ~prov:(Rng.Provenance.current_table ()))

  let create ?(name = "ctx") ?ring_capacity ?span_limit ?prov_cap () =
    register
      (make ~name
         ~reg:(Tel.Registry.create ())
         ~forest:(Trace.Forest.create ?span_limit ())
         ~sink:(Log.Sink.create ?ring_capacity ())
         ~bus:(Progress.Bus.create ())
         ~prov:(Rng.Provenance.Table.create ?cap:prov_cap ()))

  let name c = c.name
  let registry c = c.reg
  let forest c = c.forest
  let sink c = c.sink
  let bus c = c.bus
  let prov c = c.prov
  let created_at c = c.created_at
  let finished c = c.finished_at <> None

  let mark_done c =
    if c.finished_at = None then c.finished_at <- Some (Tel.Clock.now ())

  let set_ess c v = c.ess <- Some v
  let ess c = c.ess

  let elapsed c =
    (match c.finished_at with Some t -> t | None -> Tel.Clock.now ())
    -. c.created_at

  let run c f =
    Tel.with_registry c.reg (fun () ->
        Trace.with_forest c.forest (fun () ->
            Log.with_sink c.sink (fun () ->
                Progress.with_bus c.bus (fun () ->
                    Rng.Provenance.with_table c.prov f))))

  let merge ~into src =
    if into != src then begin
      Tel.Registry.merge_into ~dst:into.reg src.reg;
      Trace.Forest.merge_into ~name:src.name ~dst:into.forest src.forest;
      Log.Sink.merge_into ~dst:into.sink src.sink;
      Progress.Bus.merge_into ~dst:into.bus src.bus;
      Rng.Provenance.Table.merge_into ~dst:into.prov src.prov
    end

  let all () =
    Mutex.lock dir_mu;
    let l = List.rev !dir in
    Mutex.unlock dir_mu;
    l

  (* Tests only: forget every context but [default]. *)
  let clear_directory () =
    Mutex.lock dir_mu;
    dir := [ default ];
    Mutex.unlock dir_mu
end

(* ------------------------------------------------------------------ *)
(* Status view                                                         *)
(*                                                                     *)
(* Everything below reads contexts through explicit-instance accessors *)
(* only ([?reg], [Bus.draws], [Sink.warn_count], …), never through the *)
(* ambient [with_*] installs — a ticker thread shares its spawning     *)
(* domain's ambient state, so installing from it would corrupt the     *)
(* owner's view.                                                       *)
(* ------------------------------------------------------------------ *)

module Status = struct
  type row = {
    r_name : string;
    r_done : bool;
    r_elapsed : float;
    r_draws : float;
    r_rate : float;  (** draws/sec since the previous snapshot *)
    r_accepted : int;
    r_attempts : int;
    r_acceptance : float option;
    r_work : float;
    r_budget : float;
    r_burn : float option;  (** actual work / planned budget *)
    r_ess : float option;
    r_warns : int;
    r_errors : int;
    r_spans : int;
  }

  (* Coarse cross-engine acceptance signal: samples produced vs trials
     spent, summed over whichever kernels ran. *)
  let accepted_counters =
    [
      "rejection.accepted";
      "walk.accepted";
      "ball_walk.accepted";
      "union.samples";
      "vm.draws";
    ]

  let attempt_counters =
    [ "rejection.attempts"; "walk.proposals"; "union.trials"; "vm.trials" ]

  let sum_counters reg names =
    List.fold_left
      (fun acc n -> acc + Option.value ~default:0 (Tel.counter_value ~reg n))
      0 names

  let row_of now (c : Ctx.t) =
    let reg = Ctx.registry c in
    let accepted = sum_counters reg accepted_counters in
    let attempts = sum_counters reg attempt_counters in
    (* The progress bus tracks work units, not emitted samples, so the
       draw count (and the rate derived from it) comes from the
       produced-samples counters. *)
    let draws =
      Float.max (Progress.Bus.draws (Ctx.bus c)) (float_of_int accepted)
    in
    let dt = now -. c.Ctx.last_t in
    let rate =
      if dt > 1e-9 && draws >= c.Ctx.last_draws then
        (draws -. c.Ctx.last_draws) /. dt
      else 0.0
    in
    c.Ctx.last_draws <- draws;
    c.Ctx.last_t <- now;
    let work = Progress.Bus.total_work (Ctx.bus c) in
    let budget = Progress.Bus.total_budget (Ctx.bus c) in
    {
      r_name = Ctx.name c;
      r_done = Ctx.finished c;
      r_elapsed = Ctx.elapsed c;
      r_draws = draws;
      r_rate = rate;
      r_accepted = accepted;
      r_attempts = attempts;
      r_acceptance =
        (if attempts > 0 then Some (float_of_int accepted /. float_of_int attempts)
         else None);
      r_work = work;
      r_budget = budget;
      r_burn = (if budget > 0.0 then Some (work /. budget) else None);
      r_ess = Ctx.ess c;
      r_warns = Log.Sink.warn_count (Ctx.sink c);
      r_errors = Log.Sink.error_count (Ctx.sink c);
      r_spans = Trace.Forest.size (Ctx.forest c);
    }

  let snapshot () =
    let now = Tel.Clock.now () in
    List.map (row_of now) (Ctx.all ())

  (* ---------------------------------------------------------------- *)
  (* Renderers                                                         *)
  (* ---------------------------------------------------------------- *)

  (* Clamped: a status reader never sees [null] for a present value. *)
  let to_json ?ts rows =
    let ts = match ts with Some t -> t | None -> Tel.Clock.now () in
    let row r =
      Json.Obj
        [
          ("name", Json.Str r.r_name);
          ("done", Json.Bool r.r_done);
          ("elapsed", Json.clamp r.r_elapsed);
          ("draws", Json.clamp r.r_draws);
          ("draws_per_sec", Json.clamp r.r_rate);
          ("accepted", Json.Int r.r_accepted);
          ("attempts", Json.Int r.r_attempts);
          ("acceptance", Json.opt Json.clamp r.r_acceptance);
          ("work", Json.clamp r.r_work);
          ("budget", Json.clamp r.r_budget);
          ("budget_burn", Json.opt Json.clamp r.r_burn);
          ("ess", Json.opt Json.clamp r.r_ess);
          ("warns", Json.Int r.r_warns);
          ("errors", Json.Int r.r_errors);
          ("spans", Json.Int r.r_spans);
        ]
    in
    Json.to_line
      (Json.Obj
         [
           ("schema", Json.Str "spatialdb-status/1");
           ("ts", Json.clamp ts);
           ("contexts", Json.Arr (List.map row rows));
         ])
    ^ "\n"

  let of_json doc =
    let non_negative decode zero k j =
      let v = Json.field k decode j in
      if v < zero then Json.fail "negative %s" k;
      v
    in
    let count = non_negative Json.num 0.0 and counter = non_negative Json.int 0 in
    let ratio k j = Json.field k (Json.nullable Json.num) j in
    (* Sequential lets: the first missing field in document order is
       the one reported. *)
    let row j =
      let r_name = Json.field "name" Json.str j in
      if r_name = "" then Json.fail "context without a name";
      let r_done = Json.field "done" Json.bool j in
      let r_elapsed = count "elapsed" j in
      let r_draws = count "draws" j in
      let r_rate = count "draws_per_sec" j in
      let r_accepted = counter "accepted" j in
      let r_attempts = counter "attempts" j in
      let r_acceptance = ratio "acceptance" j in
      let r_work = count "work" j in
      let r_budget = count "budget" j in
      let r_burn = ratio "budget_burn" j in
      let r_ess = ratio "ess" j in
      let r_warns = counter "warns" j in
      let r_errors = counter "errors" j in
      let r_spans = counter "spans" j in
      {
        r_name; r_done; r_elapsed; r_draws; r_rate; r_accepted; r_attempts; r_acceptance;
        r_work; r_budget; r_burn; r_ess; r_warns; r_errors; r_spans;
      }
    in
    Json.catch (fun () ->
        Json.schema "spatialdb-status/1" doc;
        ignore (Json.field "ts" Json.num doc);
        match Json.field "contexts" (Json.list row) doc with
        | [] -> Json.fail "empty contexts array"
        | rows -> rows)

  let pct = function None -> "    -" | Some v -> Printf.sprintf "%4.0f%%" (100.0 *. v)

  let render rows =
    let buf = Buffer.create 512 in
    Buffer.add_string buf
      (Printf.sprintf "%-16s %-5s %9s %12s %10s %7s %6s %8s %5s %6s\n" "CONTEXT"
         "STATE" "ELAPSED" "DRAWS" "DRAWS/S" "ACCEPT" "BURN" "ESS" "WARN"
         "SPANS");
    List.iter
      (fun r ->
        Buffer.add_string buf
          (Printf.sprintf "%-16s %-5s %8.1fs %12.0f %10.1f %7s %6s %8s %5d %6d\n"
             r.r_name
             (if r.r_done then "done" else "run")
             r.r_elapsed r.r_draws r.r_rate
             (pct r.r_acceptance) (pct r.r_burn)
             (match r.r_ess with
             | None -> "-"
             | Some e -> Printf.sprintf "%.1f" e)
             r.r_warns r.r_spans))
      rows;
    Buffer.contents buf

  let live_line rows =
    let parts =
      List.filter_map
        (fun r ->
          if r.r_name = "default" && r.r_draws = 0.0 then None
          else
            Some
              (Printf.sprintf "%s%s %.0f@%.0f/s a%s b%s" r.r_name
                 (if r.r_done then "*" else "")
                 r.r_draws r.r_rate (pct r.r_acceptance) (pct r.r_burn)))
        rows
    in
    "[status] " ^ String.concat " | " parts

  (* Write-then-rename so a concurrent reader never sees a torn file. *)
  let write path rows =
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc (to_json rows);
    close_out oc;
    Sys.rename tmp path

  (* ---------------------------------------------------------------- *)
  (* Ticker                                                            *)
  (* ---------------------------------------------------------------- *)

  let ticker_running = ref false
  let ticker_thread : Thread.t option ref = ref None

  let tick ~out ~to_stderr () =
    let rows = snapshot () in
    (match out with None -> () | Some path -> write path rows);
    if to_stderr then begin
      output_string stderr ("\r" ^ live_line rows);
      flush stderr
    end

  let start_ticker ?(interval = 0.5) ?out ?(to_stderr = false) () =
    if not !ticker_running then begin
      ticker_running := true;
      ticker_thread :=
        Some
          (Thread.create
             (fun () ->
               while !ticker_running do
                 tick ~out ~to_stderr ();
                 Thread.delay interval
               done)
             ())
    end

  let stop_ticker ?out ?(to_stderr = false) () =
    if !ticker_running then begin
      ticker_running := false;
      (match !ticker_thread with Some t -> Thread.join t | None -> ());
      ticker_thread := None;
      tick ~out ~to_stderr ();
      if to_stderr then begin
        output_char stderr '\n';
        flush stderr
      end
    end
end
