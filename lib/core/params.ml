type t = { k : int; delta : int; m : int option }

let default = { k = 2; delta = 2; m = None }

let validate t ~n =
  if t.k <= 0 then invalid_arg "Params: k must be positive";
  if t.k > Bprc_strip.Distance_graph.max_k then
    invalid_arg
      "Params: k must be at most 85, so that the 3K edge-counter values fit \
       a byte";
  if n <= 0 then invalid_arg "Params: n must be positive";
  let _, m = Bprc_coin.Bounded_walk.bounds ~delta:t.delta ~m:t.m ~n in
  (t.k, t.delta, m)

let bits_for x =
  (* Bits to represent [x] distinct values. *)
  let rec go acc v = if v >= x then acc else go (acc + 1) (v * 2) in
  go 0 1

let state_bits t ~n =
  let k, _, m = validate t ~n in
  let pref = 2 (* {⊥, 0, 1} *) in
  let pointer = bits_for (k + 1) in
  let coins = (k + 1) * bits_for ((2 * (m + 1)) + 1) in
  let edges = n * bits_for (3 * k) in
  pref + pointer + coins + edges
