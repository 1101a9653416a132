(* Shared helpers for the experiment harness: fixed-width tables,
   timing, and statistics. *)

let rng_seed = 20060101 (* JCSS publication year-ish; fixed for reproducibility *)

let fresh_rng () = Scdb_rng.Rng.create rng_seed

let header title =
  Printf.printf "\n=== %s ===\n" title

let subheader s = Printf.printf "--- %s ---\n" s

(* Print a table: column names with widths, then rows of cells. *)
let table columns rows =
  let line = String.concat "  " (List.map (fun (name, width) -> Printf.sprintf "%-*s" width name) columns) in
  print_endline line;
  print_endline (String.make (String.length line) '-');
  List.iter
    (fun row ->
      print_endline
        (String.concat "  "
           (List.map2 (fun (_, width) cell -> Printf.sprintf "%-*s" width cell) columns row)))
    rows;
  flush stdout

let time_it f =
  let start = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. start)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let fmt_f ?(digits = 4) x = Printf.sprintf "%.*f" digits x
let fmt_e x = Printf.sprintf "%.2e" x

(* Total-variation distance between an empirical histogram and the
   uniform distribution over its bins. *)
let tv_from_uniform counts =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then 1.0
  else begin
    let k = Array.length counts in
    let u = 1.0 /. float_of_int k in
    let sum =
      Array.fold_left
        (fun acc c -> acc +. Float.abs ((float_of_int c /. float_of_int total) -. u))
        0.0 counts
    in
    sum /. 2.0
  end

let rel_err ~truth x = Float.abs (x -. truth) /. Float.abs truth
