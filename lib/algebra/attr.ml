type t = { id : int; name : string; ty : Perm_value.Dtype.t }

(* Atomic: analyzers on different domains (one engine each) mint ids
   concurrently, and a lost increment would hand two attributes one id. *)
let counter = Atomic.make 0

let fresh name ty = { id = Atomic.fetch_and_add counter 1 + 1; name; ty }

let renamed name t = fresh name t.ty
let retyped ty t = { t with ty }
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let pp ppf t = Format.fprintf ppf "%s#%d" t.name t.id
let reset_counter () = Atomic.set counter 0

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
