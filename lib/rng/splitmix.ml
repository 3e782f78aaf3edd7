(* The generator state is 8 bytes of [Bytes.t], read and written with
   the fixed-width little-endian accessors, not a [{ mutable state :
   int64 }] record: a mutable [int64] record field holds a pointer to a
   boxed value, so every state update of the record form allocates a
   fresh box (and every cross-function [next64] result another) — ~6
   minor words per draw, which the random scheduler pays once per
   simulated step.  The byte-buffer store is unboxed, and with the
   arithmetic chain inlined ([@inline] on [mix64]/[next64], [@inlined]
   at their call sites below, so a failure to inline is warning 55) a
   draw allocates nothing.  Dune's dev profile compiles libraries with
   [-opaque], so callers in other modules always make a real call to
   [bool], [int] and the rest.  The arithmetic itself is unchanged bit
   for bit, so every seeded stream — and every pinned digest derived
   from one — is identical to the record-based implementation's. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] get t = Bytes.get_int64_le t 0
let[@inline] set t v = Bytes.set_int64_le t 0 v

let of_state s =
  let b = Bytes.create 8 in
  set b s;
  b

let create ~seed = of_state (mix64 (Int64.of_int seed))

let copy t = Bytes.sub t 0 8

let[@inline] next64 t =
  let s = Int64.add ((get [@inlined]) t) golden_gamma in
  (set [@inlined]) t s;
  (mix64 [@inlined]) s

let bits30 t = Int64.to_int (Int64.shift_right_logical ((next64 [@inlined]) t) 34)

(* The rejection loops are top-level (not closures over the bound) so a
   draw allocates nothing. *)
let rec draw_narrow t limit bound =
  let r = bits30 t in
  if r < limit then r mod bound else draw_narrow t limit bound

let rec draw_wide t mask exact limit bound =
  let r =
    Int64.to_int (Int64.shift_right_logical ((next64 [@inlined]) t) 2) land mask
  in
  if exact || r < limit then r mod bound else draw_wide t mask exact limit bound

let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  if bound <= 1 lsl 30 then
    (* Rejection sampling over 30 bits to avoid modulo bias. *)
    let limit = (1 lsl 30) / bound * bound in
    draw_narrow t limit bound
  else begin
    (* Wide bound: rejection sampling over 62 bits.  The draw space has
       2^62 values (0..mask), so the acceptance region is the largest
       multiple of [bound] that fits in it: floor(2^62 / bound) * bound.
       2^62 itself is not representable (OCaml ints are 63-bit), so the
       divisibility case — where no draw ever needs rejecting — is
       detected via [mask mod bound]. *)
    let mask = (1 lsl 62) - 1 in
    let exact = mask mod bound = bound - 1 in
    let limit = if exact then mask else mask / bound * bound in
    draw_wide t mask exact limit bound
  end

let bool t = Int64.logand ((next64 [@inlined]) t) 1L = 1L

let float t =
  let r = Int64.to_int (Int64.shift_right_logical ((next64 [@inlined]) t) 11) in
  float_of_int r *. (1.0 /. 9007199254740992.0)

let split t = of_state (mix64 (next64 t))

let fork t i =
  of_state
    (mix64 (Int64.add (get t) (Int64.mul (Int64.of_int (i + 1)) 0xC2B2AE3D27D4EB4FL)))

let reseed_fork t ~seed i =
  let master = (mix64 [@inlined]) (Int64.of_int seed) in
  (set [@inlined]) t
    ((mix64 [@inlined])
       (Int64.add master (Int64.mul (Int64.of_int (i + 1)) 0xC2B2AE3D27D4EB4FL)))
