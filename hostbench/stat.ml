(** Order statistics over host-clock samples. *)

let sorted xs = List.sort Float.compare xs

(** Median; the mean of the two middle samples when the count is even.
    0 for no samples. *)
let median xs =
  match Array.of_list (sorted xs) with
  | [||] -> 0.0
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Nearest-rank quantile: the smallest sample with at least a [q] share
    of the samples at or below it.  0 for no samples. *)
let quantile q xs =
  match Array.of_list (sorted xs) with
  | [||] -> 0.0
  | a ->
      let n = Array.length a in
      let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
      a.(max 0 (min (n - 1) k))
