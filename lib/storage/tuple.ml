module Value = Perm_value.Value

type t = Value.t array

let equal a b =
  Array.length a = Array.length b && Array.for_all2 Value.key_equal a b

let compare a b =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t
let concat = Array.append
let project positions t = Array.of_list (List.map (fun i -> t.(i)) positions)

let to_string t =
  "("
  ^ String.concat ", " (Array.to_list (Array.map Value.to_string t))
  ^ ")"

module Hash = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
