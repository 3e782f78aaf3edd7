(* Edge-counter rows at the boundary with the frozen oracles and with
   hand-written matrices: the strip stores a row as bytes, one unsigned
   byte per counter, while the oracles and the tests' literals speak
   int arrays. *)

let of_ints a = Bytes.init (Array.length a) (fun j -> Char.chr a.(j))
let to_ints b = Array.init (Bytes.length b) (Bytes.get_uint8 b)
let matrix_of_ints = Array.map of_ints
let matrix_to_ints = Array.map to_ints
