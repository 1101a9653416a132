module SMap = Map.Make (String)

type t = { schema : Schema.t; relations : Relation.t SMap.t }

let create schema = { schema; relations = SMap.empty }

let schema t = t.schema

let set t name relation =
  match Schema.arity t.schema name with
  | None -> invalid_arg ("Instance.set: unknown relation " ^ name)
  | Some arity ->
      if Relation.dim relation <> arity then
        invalid_arg
          (Printf.sprintf "Instance.set: %s has arity %d but relation has dimension %d" name arity
             (Relation.dim relation));
      { t with relations = SMap.add name relation t.relations }

let get t name = SMap.find_opt name t.relations

let get_exn t name =
  match get t name with
  | Some r -> r
  | None -> invalid_arg ("Instance.get_exn: unpopulated relation " ^ name)

let names t = List.map fst (SMap.bindings t.relations)

