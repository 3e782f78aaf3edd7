type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

(* The backing array is allocated lazily on first push: it cannot be
   made without a witness element. *)
let create () = { data = [||]; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let grow t x =
  let cap = Array.length t.data in
  let new_cap = if cap = 0 then 8 else cap * 2 in
  (* Fill slack slots with an element that is stored anyway (index 0
     when available) so the array never pins values beyond [len]. *)
  let filler = if t.len = 0 then x else t.data.(0) in
  let data = Array.make new_cap filler in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds"

let get t i =
  check t i;
  t.data.(i)

let last t = if t.len = 0 then None else Some t.data.(t.len - 1)

let pop t =
  if t.len = 0 then None
  else begin
    t.len <- t.len - 1;
    let x = t.data.(t.len) in
    (* Release the vacated slot so the popped value can be collected:
       overwrite with an element that is still stored, or drop the
       backing array entirely when the vector empties. *)
    if t.len = 0 then t.data <- [||] else t.data.(t.len) <- t.data.(0);
    Some x
  end

let clear t =
  t.data <- [||];
  t.len <- 0

(* Unlike [clear]/[pop], the vacated slots cannot all be released when
   the vector empties: with no element left to overwrite with, slot 0
   keeps its value and stays pinned.  One bounded element per scratch
   vector is the price of keeping the capacity. *)
let truncate t k =
  if k < 0 || k > t.len then invalid_arg "Vec.truncate: index out of bounds";
  if t.len > 0 then begin
    let filler = t.data.(0) in
    for i = max k 1 to t.len - 1 do
      t.data.(i) <- filler
    done
  end;
  t.len <- k

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

let exists p t =
  let rec go i = i < t.len && (p t.data.(i) || go (i + 1)) in
  go 0

let to_list t = List.init t.len (fun i -> t.data.(i))
let to_array t = Array.init t.len (fun i -> t.data.(i))

let of_list xs =
  let t = create () in
  List.iter (push t) xs;
  t
