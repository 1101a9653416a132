(* The pre-[Scdb_json] reader interface, kept only for the end-to-end
   benchmark that names it.  [Json.to_string] is the printer there, so
   the option-returning readers are restated here. *)
include Scdb_json.Json

let member k v = match v with Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_list = function Arr l -> Some l | _ -> None
let to_float = function Num v -> Some v | Int i -> Some (float_of_int i) | _ -> None
let to_string = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
