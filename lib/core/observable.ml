exception Estimation_failed of string

type t = {
  dim : int;
  relation : Relation.t option;
  mem : Vec.t -> bool;
  sample : Rng.t -> Params.t -> Vec.t option;
  volume : Rng.t -> gamma:float -> eps:float -> delta:float -> float;
}

let make ?relation ~dim ~mem ~sample ~volume () =
  (match relation with
  | Some r when Relation.dim r <> dim -> invalid_arg "Observable.make: relation dimension mismatch"
  | _ -> ());
  { dim; relation; mem; sample; volume }

let of_relation_parts ~relation ~mem ~sample ~volume =
  { dim = Relation.dim relation; relation = Some relation; mem; sample; volume }

let dim t = t.dim
let relation t = t.relation
let mem t x = t.mem x
let sample t rng params = t.sample rng params

let volume t ?gamma rng ~eps ~delta =
  let gamma = match gamma with Some g -> g | None -> Params.gamma Params.default in
  t.volume rng ~gamma ~eps ~delta

let retries params = Stdlib.max 4 (int_of_float (ceil (20.0 *. log (1.0 /. Params.delta params))))

(* [sample_exn] with its retry count worked out by the caller. *)
let sample_retrying t rng params attempts =
  let left = ref attempts and point = ref None in
  while Option.is_none !point && !left > 0 do
    point := t.sample rng params;
    decr left
  done;
  match !point with
  | Some x -> x
  | None ->
      let module Log = Scdb_log.Log in
      if Log.would_log Log.Error then
        Log.error "observable.sample_failed" [ Log.int "attempts" attempts; Log.int "dim" t.dim ];
      raise (Estimation_failed "generator failed on every retry")

let sample_exn t rng params = sample_retrying t rng params (retries params)

let sample_many t rng params ~n =
  let attempts = retries params in
  List.init n (fun _ -> sample_retrying t rng params attempts)

let tag id t =
  let module Progress = Scdb_progress.Progress in
  let node = [| id |] in
  let sample rng params =
    Progress.enter_path node;
    match t.sample rng params with
    | x ->
        Progress.exit_path node;
        x
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Progress.exit_path node;
        Printexc.raise_with_backtrace e bt
  in
  let volume rng ~gamma ~eps ~delta =
    Progress.with_node id (fun () -> t.volume rng ~gamma ~eps ~delta)
  in
  { t with sample; volume }

let with_cached_volume t =
  let cache : (float * float * float, float) Hashtbl.t = Hashtbl.create 4 in
  let volume rng ~gamma ~eps ~delta =
    match Hashtbl.find_opt cache (gamma, eps, delta) with
    | Some v -> v
    | None ->
        let v = t.volume rng ~gamma ~eps ~delta in
        Hashtbl.replace cache (gamma, eps, delta) v;
        v
  in
  { t with volume }

let combine_relations f a b =
  match (a.relation, b.relation) with Some ra, Some rb -> Some (f ra rb) | _ -> None
