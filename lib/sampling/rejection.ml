module Tel = Scdb_telemetry.Telemetry
module Probe = Scdb_obs.Probe

let trial = Probe.trial ~counter:"rejection.attempts" ()
let tel_accepted = Tel.Counter.make "rejection.accepted"
let tel_rate = Tel.Histogram.make "rejection.acceptance_rate"
let sample_phase = Probe.phase "rejection.sample" (fun n -> [ Probe.int "attempts" n ])

(* A collapsing acceptance rate is the classic curse-of-dimension
   failure mode of box rejection — surfaced before the budget exhausts
   entirely. *)
let collapse =
  Probe.warning "rejection.rate_collapse" (fun attempts accepted rate ->
      [ Probe.int "attempts" attempts; Probe.int "accepted" accepted; Probe.float "rate" rate ])

let exhausted =
  Probe.warning ~counter:"rejection.exhausted" "rejection.exhausted" (fun n max_attempts ->
      [ Probe.int "attempts" n; Probe.int "max_attempts" max_attempts ])

let exhausted_many =
  Probe.warning ~counter:"rejection.exhausted" "rejection.exhausted"
    (fun n max_attempts accepted wanted ->
      [
        Probe.int "attempts" n;
        Probe.int "max_attempts" max_attempts;
        Probe.int "accepted" accepted;
        Probe.int "wanted" wanted;
      ])

type stats = { attempts : int; accepted : int }

let acceptance_rate s = if s.attempts = 0 then 0.0 else float_of_int s.accepted /. float_of_int s.attempts

let record ~attempts ~accepted =
  Probe.trials trial attempts;
  Tel.Counter.add tel_accepted accepted;
  if attempts > 0 then begin
    let rate = float_of_int accepted /. float_of_int attempts in
    Tel.Histogram.observe tel_rate rate;
    if attempts >= 1000 && rate < 0.01 then Probe.warn3 collapse attempts accepted rate
  end

let sample rng ~lo ~hi ~mem ~max_attempts =
  let sp = Probe.enter sample_phase in
  let n = ref 0 and point = ref None in
  while Option.is_none !point && !n < max_attempts do
    let x = Rng.in_box rng lo hi in
    incr n;
    if mem x then point := Some x
  done;
  let n = !n in
  record ~attempts:n ~accepted:(if Option.is_some !point then 1 else 0);
  if Option.is_none !point then Probe.warn2 exhausted n max_attempts;
  Probe.leave1 sample_phase sp n;
  !point

let sample_many rng ~lo ~hi ~mem ~count ~max_attempts =
  let rec go acc accepted attempts =
    if accepted >= count || attempts >= max_attempts then begin
      if accepted < count then Probe.warn4 exhausted_many attempts max_attempts accepted count;
      record ~attempts ~accepted;
      (List.rev acc, { attempts; accepted })
    end
    else begin
      let x = Rng.in_box rng lo hi in
      if mem x then go (x :: acc) (accepted + 1) (attempts + 1)
      else go acc accepted (attempts + 1)
    end
  in
  go [] 0 0
