module Tel = Scdb_telemetry.Telemetry
module Log = Scdb_log.Log

type state = {
  labels : string array;
  budgets : float array;
  steps : float array;
  trials : float array;
  warned : bool array;
  factor : float;
  started_at : float;
  mutable stack : int list;
}

(* A bus: one run's accrual state.  Contexts own one each; the
   pre-context global bus survives as the default every domain starts
   with.  A bus is single-writer (the domain that armed it); the
   global [active_count] is the one-load guard the kernels check, so a
   process with no armed bus anywhere pays exactly the old disabled
   cost. *)
type bus = { mutable b_state : state option; mutable b_armed : bool }

let make_bus () = { b_state = None; b_armed = false }
let default_bus = make_bus ()
let dls_bus : bus Domain.DLS.key = Domain.DLS.new_key (fun () -> default_bus)
let cur () = Domain.DLS.get dls_bus

let with_bus b f =
  let prev = Domain.DLS.get dls_bus in
  Domain.DLS.set dls_bus b;
  Fun.protect ~finally:(fun () -> Domain.DLS.set dls_bus prev) f

let active_count = Atomic.make 0
let[@inline] active () = Atomic.get active_count > 0
let overruns_c = Tel.Counter.make "progress.overruns"

let start ?(overrun_factor = 4.0) ~rows () =
  let n =
    Array.fold_left (fun acc (id, _, _) -> Stdlib.max acc (id + 1)) 0 rows
  in
  let n = Stdlib.max 1 n in
  let st =
    {
      labels = Array.make n "?";
      budgets = Array.make n 0.0;
      steps = Array.make n 0.0;
      trials = Array.make n 0.0;
      warned = Array.make n false;
      factor = overrun_factor;
      started_at = Tel.Clock.now ();
      stack = [];
    }
  in
  Array.iter
    (fun (id, label, budget) ->
      st.labels.(id) <- label;
      st.budgets.(id) <- budget)
    rows;
  let b = cur () in
  b.b_state <- Some st;
  if not b.b_armed then begin
    b.b_armed <- true;
    Atomic.incr active_count
  end

let armed_state b = if b.b_armed then b.b_state else None

let with_node id f =
  match armed_state (cur ()) with
  | Some st ->
      st.stack <- id :: st.stack;
      Fun.protect ~finally:(fun () ->
          match st.stack with _ :: rest -> st.stack <- rest | [] -> ())
        f
  | None -> f ()

let enter_path ids =
  match armed_state (cur ()) with
  | Some st ->
      for i = 0 to Array.length ids - 1 do
        st.stack <- Array.unsafe_get ids i :: st.stack
      done
  | None -> ()

let exit_path ids =
  match armed_state (cur ()) with
  | Some st ->
      for _ = 1 to Array.length ids do
        match st.stack with _ :: rest -> st.stack <- rest | [] -> ()
      done
  | None -> ()

let check_overrun st id =
  if (not st.warned.(id)) && st.budgets.(id) > 0.0 then begin
    let actual = st.steps.(id) +. st.trials.(id) in
    if actual > st.factor *. st.budgets.(id) then begin
      st.warned.(id) <- true;
      Tel.Counter.incr overruns_c;
      if Log.would_log Log.Warn then
        Log.warn "plan.budget_overrun"
          [
            Log.int "node" id;
            Log.str "op" st.labels.(id);
            Log.float "predicted" st.budgets.(id);
            Log.float "actual" actual;
            Log.float "factor" st.factor;
          ]
    end
  end

let accrue cell n =
  if active () && n <> 0 then
    match armed_state (cur ()) with
    | None -> ()
    | Some st ->
        let v = float_of_int n in
        (* A stack can name nodes the bus was not armed with (a plan
           armed with its root row only): their work goes unrecorded. *)
        let touch id =
          if id >= 0 && id < Array.length st.budgets then begin
            (cell st).(id) <- (cell st).(id) +. v;
            check_overrun st id
          end
        in
        (match st.stack with
        | [] -> if Array.length st.budgets > 0 then touch 0
        | ids -> List.iter touch ids)

let add_steps n = accrue (fun st -> st.steps) n
let add_trials n = accrue (fun st -> st.trials) n

let add_trials_on path n =
  enter_path path;
  add_trials n;
  exit_path path

(* -------------------------------------------------------------- *)
(* Snapshots                                                       *)
(* -------------------------------------------------------------- *)

type row = {
  id : int;
  label : string;
  budget : float;
  steps : float;
  trials : float;
  overrun : bool;
}

let row_work r = r.steps +. r.trials

let rows_of_state st =
  Array.init (Array.length st.budgets) (fun id ->
      {
        id;
        label = st.labels.(id);
        budget = st.budgets.(id);
        steps = st.steps.(id);
        trials = st.trials.(id);
        overrun = st.warned.(id);
      })

let rows () = match (cur ()).b_state with None -> [||] | Some st -> rows_of_state st

let actual_work id =
  match (cur ()).b_state with
  | Some st when id >= 0 && id < Array.length st.steps -> st.steps.(id) +. st.trials.(id)
  | _ -> 0.0

let total_work () = actual_work 0

(* A root-node column, [0.] when never started. *)
let root column b =
  match b.b_state with
  | Some st when Array.length (column st) > 0 -> (column st).(0)
  | _ -> 0.0

let total_budget () = root (fun st -> st.budgets) (cur ())

let overrun_count () =
  match (cur ()).b_state with
  | None -> 0
  | Some st -> Array.fold_left (fun acc w -> if w then acc + 1 else acc) 0 st.warned

let elapsed () =
  match (cur ()).b_state with None -> 0.0 | Some st -> Tel.Clock.now () -. st.started_at

let eta () =
  let w = total_work () and b = total_budget () in
  if w <= 0.0 || b <= 0.0 then None
  else begin
    let f = Float.min 1.0 (w /. b) in
    Some (elapsed () *. (1.0 -. f) /. f)
  end

let pct w b = if b <= 0.0 then 0.0 else Float.min 999.0 (100.0 *. w /. b)

let render_line () =
  match (cur ()).b_state with
  | None -> "[progress] inactive"
  | Some st ->
      let buf = Buffer.create 160 in
      let w = total_work () and b = total_budget () in
      Buffer.add_string buf
        (Printf.sprintf "[progress] %5.1f%% work %.3g/%.3g" (pct w b) w b);
      (match eta () with
      | Some e when e >= 0.0 ->
          Buffer.add_string buf (Printf.sprintf " eta %.1fs" e)
      | _ -> ());
      let n = Array.length st.budgets in
      let shown = Stdlib.min n 6 in
      for id = 0 to shown - 1 do
        Buffer.add_string buf
          (Printf.sprintf " | #%d %s %.0f%%%s" id st.labels.(id)
             (pct (st.steps.(id) +. st.trials.(id)) st.budgets.(id))
             (if st.warned.(id) then "!" else ""))
      done;
      if n > shown then Buffer.add_string buf (Printf.sprintf " | +%d more" (n - shown));
      Buffer.contents buf

(* -------------------------------------------------------------- *)
(* Buses as values (observability contexts)                        *)
(* -------------------------------------------------------------- *)

module Bus = struct
  type t = bus

  let create () = make_bus ()
  let rows b = match b.b_state with None -> [||] | Some st -> rows_of_state st
  let trials = root (fun st -> st.trials)
  let steps = root (fun st -> st.steps)

  (* Merge: elementwise add of every accrual column *and* the budgets
     (two runs over the same plan predict twice the work), [warned]
     or-ed, earliest start kept.  If [dst] never armed a run it adopts
     a copy of [src]'s state.  [src] is unchanged. *)
  let merge_into ~dst src =
    if dst != src then
      match (src.b_state, dst.b_state) with
      | None, _ -> ()
      | Some s, None ->
          dst.b_state <-
            Some
              {
                labels = Array.copy s.labels;
                budgets = Array.copy s.budgets;
                steps = Array.copy s.steps;
                trials = Array.copy s.trials;
                warned = Array.copy s.warned;
                factor = s.factor;
                started_at = s.started_at;
                stack = [];
              }
      | Some s, Some d ->
          let n = Stdlib.max (Array.length s.budgets) (Array.length d.budgets) in
          let ext a b op zero =
            Array.init n (fun i ->
                let x = if i < Array.length a then a.(i) else zero in
                let y = if i < Array.length b then b.(i) else zero in
                op x y)
          in
          let merged =
            {
              labels =
                Array.init n (fun i ->
                    if i < Array.length d.labels && d.labels.(i) <> "?" then d.labels.(i)
                    else if i < Array.length s.labels then s.labels.(i)
                    else "?");
              budgets = ext d.budgets s.budgets ( +. ) 0.0;
              steps = ext d.steps s.steps ( +. ) 0.0;
              trials = ext d.trials s.trials ( +. ) 0.0;
              warned = ext d.warned s.warned ( || ) false;
              factor = d.factor;
              started_at = Float.min d.started_at s.started_at;
              stack = d.stack;
            }
          in
          dst.b_state <- Some merged
end

let current_bus () = cur ()

(* -------------------------------------------------------------- *)
(* Ticker                                                          *)
(* -------------------------------------------------------------- *)

let ticker_running = ref false
let ticker_thread : Thread.t option ref = ref None

let ticker_loop interval =
  while !ticker_running do
    output_string stderr ("\r" ^ render_line ());
    flush stderr;
    Thread.delay interval
  done

let start_ticker ?(interval = 0.5) () =
  if not !ticker_running then begin
    ticker_running := true;
    ticker_thread := Some (Thread.create ticker_loop interval)
  end

let stop_ticker () =
  if !ticker_running then begin
    ticker_running := false;
    (match !ticker_thread with Some t -> Thread.join t | None -> ());
    ticker_thread := None;
    output_string stderr ("\r" ^ render_line () ^ "\n");
    flush stderr
  end

let stop () =
  stop_ticker ();
  let b = cur () in
  if b.b_armed then begin
    b.b_armed <- false;
    Atomic.decr active_count
  end
