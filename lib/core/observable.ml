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

let sample_exn t rng params =
  let attempts = Stdlib.max 4 (int_of_float (ceil (20.0 *. log (1.0 /. Params.delta params)))) in
  let rec go n =
    if n = 0 then begin
      let module Log = Scdb_log.Log in
      if Log.would_log Log.Error then
        Log.error "observable.sample_failed"
          [ Log.int "attempts" attempts; Log.int "dim" t.dim ];
      raise (Estimation_failed "generator failed on every retry")
    end
    else match t.sample rng params with Some x -> x | None -> go (n - 1)
  in
  go attempts

let sample_many t rng params ~n = List.init n (fun _ -> sample_exn t rng params)

let tag id t =
  let on_node f = Scdb_progress.Progress.with_node id f in
  {
    t with
    sample = (fun rng params -> on_node (fun () -> t.sample rng params));
    volume = (fun rng ~gamma ~eps ~delta -> on_node (fun () -> t.volume rng ~gamma ~eps ~delta));
  }

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
