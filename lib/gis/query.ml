type t =
  | Rel of string * int list
  | Constr of Atom.t
  | And of t list
  | Or of t list
  | Not of t
  | Exists of int list * t

let rel name args = Rel (name, args)
let constr a = Constr a

let conj = function [ q ] -> q | qs -> And qs
let disj = function [ q ] -> q | qs -> Or qs
let neg = function Not q -> q | q -> Not q
let exists vs q = match vs with [] -> q | vs -> (match q with Exists (ws, r) -> Exists (vs @ ws, r) | _ -> Exists (vs, q))

let relation_names q =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Rel (name, _) ->
        if not (Hashtbl.mem seen name) then begin
          Hashtbl.add seen name ();
          acc := name :: !acc
        end
    | Constr _ -> ()
    | And qs | Or qs -> List.iter go qs
    | Not q | Exists (_, q) -> go q
  in
  go q;
  List.rev !acc

module ISet = Set.Make (Int)

let rec free_set = function
  | Rel (_, args) -> ISet.of_list args
  | Constr a -> ISet.of_list (Atom.vars a)
  | And qs | Or qs -> List.fold_left (fun acc q -> ISet.union acc (free_set q)) ISet.empty qs
  | Not q -> free_set q
  | Exists (vs, q) -> ISet.diff (free_set q) (ISet.of_list vs)

let free_vars q = ISet.elements (free_set q)

let rec max_var = function
  | Rel (_, args) -> List.fold_left Stdlib.max (-1) args
  | Constr a -> Atom.max_var a
  | And qs | Or qs -> List.fold_left (fun acc q -> Stdlib.max acc (max_var q)) (-1) qs
  | Not q -> max_var q
  | Exists (vs, q) -> List.fold_left Stdlib.max (max_var q) vs

let rec is_positive_existential = function
  | Rel _ | Constr _ -> true
  | And qs | Or qs -> List.for_all is_positive_existential qs
  | Not _ -> false
  | Exists (_, q) -> is_positive_existential q

let well_formed schema q =
  let rec go = function
    | Rel (name, args) -> (
        match Schema.arity schema name with
        | None -> Error (Printf.sprintf "unknown relation %s" name)
        | Some a when a <> List.length args ->
            Error (Printf.sprintf "%s expects %d arguments, got %d" name a (List.length args))
        | Some _ -> Ok ())
    | Constr _ -> Ok ()
    | And qs | Or qs ->
        List.fold_left (fun acc q -> match acc with Error _ -> acc | Ok () -> go q) (Ok ()) qs
    | Not q | Exists (_, q) -> go q
  in
  go q

let parse ~schema ~vars input =
  let relation name args =
    let q = Rel (name, args) in
    match well_formed schema q with Ok () -> q | Error m -> raise (Parser.Parse_error m)
  in
  Parser.parse_with
    {
      atom = constr;
      conj;
      disj;
      neg;
      exists;
      forall = (fun vs q -> neg (exists vs (neg q)));
      relation = Some relation;
    }
    ~vars input

let rec pp fmt = function
  | Rel (name, args) ->
      Format.fprintf fmt "%s(%s)" name (String.concat ", " (List.map (Printf.sprintf "x%d") args))
  | Constr a -> Atom.pp fmt a
  | And [] -> Format.pp_print_string fmt "true"
  | Or [] -> Format.pp_print_string fmt "false"
  | And qs ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " /\\ ") pp)
        qs
  | Or qs ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " \\/ ") pp)
        qs
  | Not q -> Format.fprintf fmt "~%a" pp q
  | Exists (vs, q) ->
      Format.fprintf fmt "exists %s. %a" (String.concat " " (List.map (Printf.sprintf "x%d") vs)) pp q
