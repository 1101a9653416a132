module Tel = Scdb_telemetry.Telemetry
module Trace = Scdb_trace.Trace
module Log = Scdb_log.Log
module Progress = Scdb_progress.Progress

(* Each probe is its stores' guards, with whatever builds a field list
   or touches a cell behind them. *)

type field = I of string * int | F of string * float | S of string * string

let int k v = I (k, v)
let float k v = F (k, v)
let str k v = S (k, v)
let counter name = Option.map Tel.Counter.make name
let bump c n = match c with Some c -> Tel.Counter.add c n | None -> ()

type walk = {
  chains : Tel.Counter.t option;
  steps : Tel.Counter.t;
  proposals : Tel.Counter.t option;
  tally : Tel.Counter.t option;
}

let walk ?chains ?proposals ?tally steps =
  { chains = counter chains; steps = Tel.Counter.make steps; proposals = counter proposals;
    tally = counter tally }

let count w ~chains ~steps ~proposals ~tally =
  bump w.chains chains;
  Tel.Counter.add w.steps steps;
  bump w.proposals proposals;
  bump w.tally tally

let[@inline] steps w ~chains ~steps ~proposals ~tally =
  if Tel.enabled () then count w ~chains ~steps ~proposals ~tally;
  if Progress.active () then Progress.add_steps steps

type trial = Tel.Counter.t option

let trial ?counter:name () = counter name

let[@inline] trials t n =
  if Tel.enabled () then bump t n;
  if Progress.active () then Progress.add_trials n

let[@inline] trials_on t path n =
  if Tel.enabled () then bump t n;
  if Progress.active () then Progress.add_trials_on path n

type 'f phase = { name : string; attrs : 'f }

let phase name attrs = { name; attrs }
let[@inline] enter p = Trace.start p.name

let close sp fields =
  let attr = function
    | I (k, v) -> (k, string_of_int v)
    | F (k, v) -> (k, Printf.sprintf "%.6g" v)
    | S (k, v) -> (k, v)
  in
  Trace.finish ~attrs:(List.map attr fields) sp

let[@inline] leave1 p sp a = if sp >= 0 then close sp (p.attrs a)
let[@inline] leave2 p sp a b = if sp >= 0 then close sp (p.attrs a b)
let[@inline] leave3 p sp a b c = if sp >= 0 then close sp (p.attrs a b c)
let[@inline] leave4 p sp a b c d = if sp >= 0 then close sp (p.attrs a b c d)

type 'f warning = { event : string; ticks : Tel.Counter.t option; fields : 'f }

let warning ?counter:name event fields = { event; ticks = counter name; fields }
let[@inline] tick w = if Tel.enabled () then bump w.ticks 1

let emit w fields =
  let field = function
    | I (k, v) -> Log.int k v
    | F (k, v) -> Log.float k v
    | S (k, v) -> Log.str k v
  in
  Log.warn w.event (List.map field fields)

let[@inline] warn2 w a b = tick w; if Log.would_log Log.Warn then emit w (w.fields a b)
let[@inline] warn3 w a b c = tick w; if Log.would_log Log.Warn then emit w (w.fields a b c)
let[@inline] warn4 w a b c d = tick w; if Log.would_log Log.Warn then emit w (w.fields a b c d)

let[@inline] warn5 w a b c d e =
  tick w;
  if Log.would_log Log.Warn then emit w (w.fields a b c d e)
