module Make (R : Bprc_runtime.Runtime_intf.S) = struct
  module Snap = Bprc_snapshot.Handshake.Make (R)

  type state = {
    pref : bool option;
    round : int;  (** unbounded *)
    coins : int array;  (** counter per round up to [round]; grows *)
  }

  type t = {
    k : int;
    threshold : int;
    mem : state Snap.t;
    views : state array array;
        (** per-pid scan buffers: slot [p] is refilled only by process
            [p]'s own next scan, so a view survives [p]'s yields *)
    mutable walk_count : int;
    mutable max_round_seen : int;
    mutable max_counter_mag : int;
    (* Meta-level probes for the adaptive adversaries. *)
    raw_round : int array;
    coin_published : int array;
    coin_pending : int array;
  }

  let create ?(name = "ah88") ?(k = 2) ?(delta = 2) () =
    if k <= 0 || delta <= 0 then invalid_arg "Ah88.create";
    let init = { pref = None; round = 0; coins = [||] } in
    {
      k;
      threshold = delta * R.n;
      mem = Snap.create ~name ~init ();
      views = Array.init R.n (fun _ -> Array.make R.n init);
      walk_count = 0;
      max_round_seen = 0;
      max_counter_mag = 0;
      raw_round = Array.make R.n 0;
      coin_published = Array.make R.n 0;
      coin_pending = Array.make R.n 0;
    }

  (* Advance to the next round: extend the per-round counter strip. *)
  let inc st =
    let round = st.round + 1 in
    let coins = Array.make (round + 1) 0 in
    Array.blit st.coins 0 coins 0 (Array.length st.coins);
    (round, coins)

  let counter_for st r = if r < Array.length st.coins then st.coins.(r) else 0

  (* [fold_left] with a closure capturing [r] allocated per call;
     explicit loops keep the steady state allocation-free. *)
  let coin_sum view r =
    let s = ref 0 in
    for j = 0 to Array.length view - 1 do
      s := !s + counter_for view.(j) r
    done;
    !s

  let max_round view =
    let mx = ref 0 in
    for j = 0 to Array.length view - 1 do
      if view.(j).round > !mx then mx := view.(j).round
    done;
    !mx

  (* Leaders are the processes at the maximal round [mx]; the old
     [List.init]+[List.filter] leader list is gone — this loop answers
     "do all leaders carry the same non-⊥ preference" directly,
     allocating only the final [Some].  [mx] is achieved by some
     process, so the leader set is never empty. *)
  let leaders_agree view mx =
    let ok = ref true and have = ref false and agreed = ref false in
    for j = 0 to Array.length view - 1 do
      if !ok && view.(j).round = mx then
        match view.(j).pref with
        | None -> ok := false
        | Some v ->
          if not !have then begin
            have := true;
            agreed := v
          end
          else if v <> !agreed then ok := false
    done;
    if !ok && !have then Some !agreed else None

  let enter_round t me round =
    t.max_round_seen <- Int.max t.max_round_seen round;
    t.raw_round.(me) <- round;
    t.coin_published.(me) <- 0;
    t.coin_pending.(me) <- 0

  let run t ~input =
    let me = R.pid () in
    let view = t.views.(me) in
    Snap.scan_into t.mem view;
    let round, coins = inc view.(me) in
    Snap.write t.mem { pref = Some input; round; coins };
    enter_round t me round;
    let rec loop () =
      Snap.scan_into t.mem view;
      let my = view.(me) in
      let mx = max_round view in
      let is_leader = my.round = mx in
      let can_decide =
        match my.pref with
        | None -> false
        | Some v ->
          is_leader
          && (let ok = ref true in
              for j = 0 to R.n - 1 do
                if j <> me then begin
                  let agrees =
                    match view.(j).pref with Some w -> w = v | None -> false
                  in
                  if (not agrees) && my.round - view.(j).round < t.k then
                    ok := false
                end
              done;
              !ok)
      in
      match my.pref with
      | Some v when can_decide -> v
      | _ -> (
        match leaders_agree view mx with
        | Some v ->
          let round, coins = inc my in
          Snap.write t.mem { pref = Some v; round; coins };
          enter_round t me round;
          loop ()
        | None -> (
          match my.pref with
          | Some _ ->
            Snap.write t.mem { my with pref = None };
            loop ()
          | None ->
            let sum = coin_sum view my.round in
            if sum > t.threshold || sum < -t.threshold then begin
              let v = sum > t.threshold in
              let round, coins = inc my in
              Snap.write t.mem { pref = Some v; round; coins };
              enter_round t me round;
              loop ()
            end
            else begin
              (* Unbounded walk step on my current round's counter. *)
              let coins = Array.copy my.coins in
              let move = if R.flip () then 1 else -1 in
              t.coin_pending.(me) <- move;
              let c = coins.(my.round) + move in
              coins.(my.round) <- c;
              t.max_counter_mag <- Int.max t.max_counter_mag (abs c);
              t.walk_count <- t.walk_count + 1;
              Snap.write t.mem { my with pref = None; coins };
              t.coin_published.(me) <- c;
              t.coin_pending.(me) <- 0;
              loop ()
            end))
    in
    loop ()

  let max_round t = t.max_round_seen

  let bits_for x =
    let rec go acc v = if v >= x then acc else go (acc + 1) (v * 2) in
    go 0 1

  let max_register_bits t =
    let rounds = t.max_round_seen + 1 in
    let counter_bits = 1 + bits_for (t.max_counter_mag + 1) in
    2 (* pref *) + bits_for (rounds + 1) + (rounds * counter_bits)

  (* Unbounded-strip baseline: the payload width is the grown maximum
     observed so far, so unlike [Ads89] this report is execution-
     dependent (the point of experiment E6). *)
  let space t = Snap.space ~value_bits:(max_register_bits t) t.mem

  let total_walk_steps t = t.walk_count

  let coin_probe t =
    {
      Coin_probe.rounds = Array.copy t.raw_round;
      published = Array.copy t.coin_published;
      pending = Array.copy t.coin_pending;
      threshold = t.threshold;
    }
end
