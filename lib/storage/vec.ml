type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }
let copy t = { data = Array.copy t.data; len = t.len }
let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of bounds";
  t.data.(i)

let grow t elt =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let data = Array.make new_cap elt in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let clear t =
  t.data <- [||];
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_list t = List.init t.len (fun i -> t.data.(i))

let sub t pos len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg "Vec.sub: range out of bounds";
  Array.sub t.data pos len

let of_list l =
  let t = create () in
  List.iter (push t) l;
  t

let to_seq t =
  let rec node i () =
    if i >= t.len then Seq.Nil else Seq.Cons (t.data.(i), node (i + 1))
  in
  node 0
