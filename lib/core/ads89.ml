type coin_mode = Consensus_intf.coin_mode =
  | Shared_walk
  | Local_flips
  | Oracle_shared

type stats = Consensus_intf.stats = {
  scans : int;
  writes : int;
  walk_steps : int;
  max_raw_round : int;
  inconsistent_reconstructions : int;
}

(* The two decisions as shared boxes: an array of decisions keeps one
   word per process, not a fresh two-word box each. *)
let some_true = Some true
let some_false = Some false
let decision v = if v then some_true else some_false

type 'r segment = { pref : bool option; round : 'r }

type verdict = Bprc_coin.Bounded_walk.verdict = Heads | Tails | Undecided

module type STRIP = sig
  type t
  type round
  type decode_stats

  val name : string
  val create : Params.t -> n:int -> t
  val init : t -> round
  val decode : t -> round segment array -> int -> unit
  val leader : t -> int -> bool
  val trails : t -> int -> bool
  val coin : t -> round segment array -> verdict
  val advance : t -> round -> round
  val walk : t -> round -> int -> round
  val counter : t -> round -> int
  val state_bits : t -> int
  val decode_stats : t -> decode_stats
  val inconsistent_reconstructions : t -> int
end

module type S = sig
  include Consensus_intf.S

  val decode_stats : t -> Bprc_strip.Edge_counters.refill_stats
end

(* The §5 loop.  Everything that depends on how rounds are
   represented (the leader and trails-by-K tests, the round coin, a
   round advance, a walk step, the widths) is a question to [St]. *)
module Over_strip
    (St : STRIP)
    (R : Bprc_runtime.Runtime_intf.S)
    (Snap : Bprc_snapshot.Snapshot_intf.S) =
struct
  type state = St.round segment

  type t = {
    strip : St.t;
    mem : state Snap.t;
    views : state array array;
        (** per-pid scan buffers: [views.(p)] is only ever refilled by
            process [p]'s own next scan, so a view stays readable
            across that process's yields *)
    mode : coin_mode;
    oracle_seed : int;
    (* Meta-level instrumentation, not part of the algorithm's shared
       state. *)
    probe : Bprc_coin.Coin_probe.t;
        (** true round, current-round counter as last written, and
            drawn-but-unpublished step direction, per process *)
    mutable scan_count : int;
    mutable write_count : int;
    mutable walk_count : int;
  }

  let create ?(name = St.name) ?(params = Params.default)
      ?(coin_mode = Shared_walk) ?(oracle_seed = 0) () =
    let _, delta, _ = Params.validate params ~n:R.n in
    let strip = St.create params ~n:R.n in
    let init = { pref = None; round = St.init strip } in
    {
      strip;
      mem = Snap.create ~name ~init ();
      views = Array.init R.n (fun _ -> Array.make R.n init);
      mode = coin_mode;
      oracle_seed;
      probe = Bprc_coin.Coin_probe.create ~n:R.n ~threshold:(delta * R.n);
      scan_count = 0;
      write_count = 0;
      walk_count = 0;
    }

  (* Scan into my view buffer and decode it into the strip. *)
  let scan t me =
    t.scan_count <- t.scan_count + 1;
    let view = t.views.(me) in
    Snap.scan_into t.mem view;
    St.decode t.strip view me;
    view

  let write t pref round =
    t.write_count <- t.write_count + 1;
    Snap.write t.mem { pref; round }

  (* Adopt [v] and enter the next round (§5 [inc]). *)
  let enter t me v round =
    let round = St.advance t.strip round in
    t.probe.rounds.(me) <- t.probe.rounds.(me) + 1;
    t.probe.published.(me) <- 0;
    t.probe.pending.(me) <- 0;
    write t (Some v) round

  (* I lead, and every process preferring otherwise trails me by K. *)
  let can_decide t view me v =
    St.leader t.strip me
    &&
    let ok = ref true in
    for j = 0 to R.n - 1 do
      if !ok && j <> me then begin
        let agrees =
          match view.(j).pref with Some w -> w = v | None -> false
        in
        if (not agrees) && not (St.trails t.strip j) then ok := false
      end
    done;
    !ok

  (* Do all leaders carry the same non-⊥ preference?  [None] when
     there are no leaders, some leader has no preference, or two
     leaders disagree; only the final [Some] allocates. *)
  let leaders_agree t view =
    let seen = ref false
    and ok = ref true
    and have = ref false
    and agreed = ref false in
    for i = 0 to R.n - 1 do
      if !ok && St.leader t.strip i then begin
        seen := true;
        match view.(i).pref with
        | None -> ok := false
        | Some v ->
          if not !have then begin
            have := true;
            agreed := v
          end
          else if v <> !agreed then ok := false
      end
    done;
    if !seen && !ok then Some !agreed else None

  let oracle_value t round =
    Bprc_rng.Splitmix.bool
      (Bprc_rng.Splitmix.fork
         (Bprc_rng.Splitmix.create ~seed:t.oracle_seed)
         round)

  (* The strip's decode holds from this process's scan to its next
     yield: the write, or [Local_flips]'s [R.flip].  Another process
     may decode its own view during that flip, so [Local_flips]
     re-decodes the same view (its per-pid buffer survives the yield)
     before the round advance; the flip stays where it was, a yield
     point the adversary may probe. *)
  let run t ~input =
    let me = R.pid () in
    (* Announce: adopt the input and enter round 1. *)
    let view = scan t me in
    enter t me input view.(me).round;
    let rec loop () =
      let view = scan t me in
      let my = view.(me) in
      match my.pref with
      | Some v when can_decide t view me v -> v
      | _ -> (
        match leaders_agree t view with
        | Some v ->
          enter t me v my.round;
          loop ()
        | None -> (
          match my.pref with
          | Some _ ->
            write t None my.round;
            loop ()
          | None -> (
            match t.mode with
            | Local_flips ->
              let v = R.flip () in
              St.decode t.strip view me;
              enter t me v my.round;
              loop ()
            | Oracle_shared ->
              enter t me (oracle_value t t.probe.rounds.(me)) my.round;
              loop ()
            | Shared_walk -> (
              match St.coin t.strip view with
              | Undecided ->
                let move = if R.flip () then 1 else -1 in
                t.probe.pending.(me) <- move;
                let round = St.walk t.strip my.round move in
                t.walk_count <- t.walk_count + 1;
                write t None round;
                t.probe.published.(me) <- St.counter t.strip round;
                t.probe.pending.(me) <- 0;
                loop ()
              | Heads ->
                enter t me true my.round;
                loop ()
              | Tails ->
                enter t me false my.round;
                loop ()))))
    in
    loop ()

  let stats t =
    {
      scans = t.scan_count;
      writes = t.write_count;
      walk_steps = t.walk_count;
      max_raw_round = Array.fold_left max 0 t.probe.rounds;
      inconsistent_reconstructions =
        St.inconsistent_reconstructions t.strip;
    }

  let decode_stats t = St.decode_stats t.strip
  let state_bits t = St.state_bits t.strip

  (* The snapshot layer adds its own control bits. *)
  let space t = Snap.space ~value_bits:(state_bits t) t.mem

  let coin_probe t = t.probe
  let memory t = t.mem
end

(* The §4 bounded strip: a pointer and K+1 bounded walk counters (the
   coins of my latest rounds, §3 embedded per Observation 1) plus my
   row of the mod-3K edge counters. *)
module Bounded = struct
  module Dg = Bprc_strip.Distance_graph
  module Ec = Bprc_strip.Edge_counters

  type round = {
    current_coin : int;  (** pointer in [0..K] *)
    coins : int array;  (** K+1 bounded walk counters *)
    edges : Bytes.t;
        (** this process's row of the mod-3K counters, one byte each *)
  }

  type decode_stats = Ec.refill_stats

  type t = {
    k : int;
    m : int;
    threshold : int;
    state_bits : int;
    (* The instance's one decode scratch: one mod-3K counter matrix plus
       one distance graph, refilled in place once per scan, and
       incrementally, re-decoding only the rows whose published array
       changed since the previous decode.  Every process decodes into
       it. *)
    ec : Ec.t;
    g : Dg.t;
    seen : round segment array;  (** [seen.(i)]: the segment adopted last *)
    mutable me : int;  (** the process of the latest decode *)
  }

  let name = "ads89"

  (* Never published, so no view holds it: the first decode adopts
     every row. *)
  let unseen =
    {
      pref = None;
      round = { current_coin = 0; coins = [||]; edges = Bytes.empty };
    }

  let create params ~n =
    let k, delta, m = Params.validate params ~n in
    {
      k;
      m;
      threshold = delta * n;
      state_bits = Params.state_bits params ~n;
      ec = Ec.create ~k ~n;
      g = Dg.create_scratch ~k ~n;
      seen = Array.make n unseen;
      me = 0;
    }

  let init s =
    {
      current_coin = 0;
      coins = Array.make (s.k + 1) 0;
      edges = Bytes.make (Ec.n s.ec) '\000';
    }

  (* Rows into the counter matrix, counters into the distance graph.
     A segment that is physically the one adopted last is skipped with
     one compare, and [Ec.set_row] skips a row whose published [edges]
     bytes it adopted last: published segments and rows are never
     mutated ([advance] publishes a fresh row, every other write reuses
     the bytes). *)
  let decode s view me =
    for i = 0 to Array.length view - 1 do
      let seg = view.(i) in
      if seg != s.seen.(i) then begin
        Ec.set_row s.ec i seg.round.edges;
        s.seen.(i) <- seg
      end
    done;
    Ec.to_graph_into s.ec s.g;
    s.me <- me

  let leader s i = Dg.is_leader s.g i
  let trails s j = Dg.dist_ge s.g s.me j s.k

  (* §5 [next_coin_value]: my current round's coin, from every process
     at most K-1 rounds ahead of me; processes K or more ahead have
     withdrawn their contribution (Observation 1.2) and trailing
     processes have not contributed yet — both count as 0.  An own
     counter outside ±m is the overflow escape: heads. *)
  let coin s view =
    let me = s.me in
    let st = view.(me).round in
    let kp1 = s.k + 1 in
    let own = st.coins.((st.current_coin + 1) mod kp1) in
    if Bprc_coin.Bounded_walk.overflowed ~m:s.m own then Heads
    else begin
      let sum = ref own in
      for j = 0 to Array.length view - 1 do
        if j <> me && Dg.edge s.g j me then begin
          let w = Dg.weight s.g j me in
          if w < s.k then begin
            let r = view.(j).round in
            let slot = (((r.current_coin - w + 1) mod kp1) + kp1) mod kp1 in
            sum := !sum + r.coins.(slot)
          end
        end
      done;
      Bprc_coin.Bounded_walk.barrier ~threshold:s.threshold !sum
    end

  (* §5 [inc]: bump the coin pointer, zero the slot now standing for the
     round being entered (recycling the slot of the round K+1 back),
     advance my edge counters against the latest decode.  [coins] and
     [edges] are fresh: they are published and must not alias the
     scratch. *)
  let advance s st =
    let kp1 = s.k + 1 in
    let current_coin = (st.current_coin + 1) mod kp1 in
    let coins = Array.copy st.coins in
    coins.((current_coin + 1) mod kp1) <- 0;
    { current_coin; coins; edges = Ec.inc_row_with s.ec ~graph:s.g s.me }

  (* §5 [flip_next_coin]: one walk step on my counter for the current
     round, clamped into the escape band ±(m+1). *)
  let walk s st move =
    let slot = (st.current_coin + 1) mod (s.k + 1) in
    let coins = Array.copy st.coins in
    coins.(slot) <- Bprc_coin.Bounded_walk.step ~m:s.m coins.(slot) move;
    { st with coins }

  let counter s st = st.coins.((st.current_coin + 1) mod (s.k + 1))
  let edges st = st.edges
  let state_bits s = s.state_bits
  let decode_stats s = Ec.refill_stats s.ec
  let inconsistent_reconstructions s = Dg.inconsistent s.g
end

module Make_over_snapshot = Over_strip (Bounded)

module Make_batched (R : Bprc_runtime.Runtime_intf.BATCHED) =
  Make_over_snapshot (R) (Bprc_snapshot.Handshake.Make_batched (R))

module Make (R : Bprc_runtime.Runtime_intf.S) =
  Make_batched (Bprc_runtime.Runtime_intf.Loop (R))
