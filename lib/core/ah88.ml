(* The unbounded strip: a plain round number, and a walk counter for
   every round entered so far (the infinite strip of coins, one
   location per round). *)
module Unbounded = struct
  type round = {
    r : int;  (** unbounded *)
    coins : int array;  (** counter per round up to [r]; grows *)
  }

  type decode_stats = unit

  type t = {
    k : int;
    threshold : int;
    rounds : int array;  (** round numbers of the latest decode *)
    mutable top : int;  (** their maximum *)
    mutable me : int;  (** the process of the latest decode *)
    mutable max_round : int;
    mutable max_counter_mag : int;
  }

  let name = "ah88"

  let create params ~n =
    let k, delta, _ = Params.validate params ~n in
    {
      k;
      threshold = delta * n;
      rounds = Array.make n 0;
      top = 0;
      me = 0;
      max_round = 0;
      max_counter_mag = 0;
    }

  let init _ = { r = 0; coins = [||] }

  let decode s (view : round Ads89.segment array) me =
    let top = ref 0 in
    for j = 0 to Array.length view - 1 do
      let r = view.(j).round.r in
      s.rounds.(j) <- r;
      if r > !top then top := r
    done;
    s.top <- !top;
    s.me <- me

  let leader s i = s.rounds.(i) = s.top
  let trails s j = s.rounds.(s.me) - s.rounds.(j) >= s.k

  (* The sum of every process's counter for my round: processes ahead
     never withdraw theirs, and trailing ones have not contributed. *)
  let coin s (view : round Ads89.segment array) =
    let r = s.rounds.(s.me) in
    let sum = ref 0 in
    for j = 0 to Array.length view - 1 do
      let coins = view.(j).round.coins in
      if r < Array.length coins then sum := !sum + coins.(r)
    done;
    Bprc_coin.Bounded_walk.barrier ~threshold:s.threshold !sum

  (* Round + 1, with one more counter. *)
  let advance s st =
    let r = st.r + 1 in
    let coins = Array.make (r + 1) 0 in
    Array.blit st.coins 0 coins 0 (Array.length st.coins);
    s.max_round <- Int.max s.max_round r;
    { r; coins }

  (* Unclamped; the largest magnitude reached sets the width. *)
  let walk s st move =
    let coins = Array.copy st.coins in
    let c = coins.(st.r) + move in
    coins.(st.r) <- c;
    s.max_counter_mag <- Int.max s.max_counter_mag (abs c);
    { st with coins }

  let counter _ st = st.coins.(st.r)
  let edges _ = [||]

  (* The grown maximum so far: execution-dependent, unlike the bounded
     strip's (the point of experiment E6). *)
  let state_bits s =
    let rounds = s.max_round + 1 in
    let counter_bits = 1 + Params.bits_for (s.max_counter_mag + 1) in
    2 (* pref *) + Params.bits_for (rounds + 1) + (rounds * counter_bits)

  let register_bits = state_bits
  let decode_stats _ = ()
  let inconsistent_reconstructions _ = 0
end

module Make_batched (R : Bprc_runtime.Runtime_intf.BATCHED) =
  Ads89.Over_strip (Unbounded) (R) (Bprc_snapshot.Handshake.Make_batched (R))
