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

let record s =
  Probe.trials trial s.attempts;
  Tel.Counter.add tel_accepted s.accepted;
  if s.attempts > 0 then begin
    let rate = acceptance_rate s in
    Tel.Histogram.observe tel_rate rate;
    if s.attempts >= 1000 && rate < 0.01 then Probe.warn3 collapse s.attempts s.accepted rate
  end

let sample rng ~lo ~hi ~mem ~max_attempts =
  let sp = Probe.enter sample_phase in
  let rec go n =
    if n >= max_attempts then begin
      record { attempts = n; accepted = 0 };
      Probe.warn2 exhausted n max_attempts;
      Probe.leave1 sample_phase sp n;
      None
    end
    else begin
      let x = Rng.in_box rng lo hi in
      if mem x then begin
        record { attempts = n + 1; accepted = 1 };
        Probe.leave1 sample_phase sp (n + 1);
        Some (x, n + 1)
      end
      else go (n + 1)
    end
  in
  go 0

let sample_many rng ~lo ~hi ~mem ~count ~max_attempts =
  let rec go acc accepted attempts =
    if accepted >= count || attempts >= max_attempts then begin
      if accepted < count then Probe.warn4 exhausted_many attempts max_attempts accepted count;
      let s = { attempts; accepted } in
      record s;
      (List.rev acc, s)
    end
    else begin
      let x = Rng.in_box rng lo hi in
      if mem x then go (x :: acc) (accepted + 1) (attempts + 1)
      else go acc accepted (attempts + 1)
    end
  in
  go [] 0 0
