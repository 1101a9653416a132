open Scdb_num

type t = Rational.t array array

let det m =
  let n = Array.length m in
  if Array.exists (fun row -> Array.length row <> n) m then invalid_arg "Exact_mat.det: not square";
  let a = Array.map Array.copy m in
  let sign = ref Rational.one in
  let result = ref Rational.one in
  (try
     for col = 0 to n - 1 do
       let p = ref (-1) in
       (try
          for i = col to n - 1 do
            if not (Rational.is_zero a.(i).(col)) then begin
              p := i;
              raise Exit
            end
          done
        with Exit -> ());
       if !p < 0 then begin
         result := Rational.zero;
         raise Exit
       end;
       if !p <> col then begin
         let tmp = a.(col) in
         a.(col) <- a.(!p);
         a.(!p) <- tmp;
         sign := Rational.neg !sign
       end;
       result := Rational.mul !result a.(col).(col);
       let inv_pivot = Rational.inv a.(col).(col) in
       for i = col + 1 to n - 1 do
         if not (Rational.is_zero a.(i).(col)) then begin
           let f = Rational.mul a.(i).(col) inv_pivot in
           for j = col to n - 1 do
             a.(i).(j) <- Rational.sub a.(i).(j) (Rational.mul f a.(col).(j))
           done
         end
       done
     done
   with Exit -> ());
  Rational.mul !sign !result
