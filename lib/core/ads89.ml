type coin_mode = Consensus_intf.coin_mode =
  | Shared_walk
  | Local_flips
  | Oracle_shared

type stats = Consensus_intf.stats = {
  scans : int;
  writes : int;
  walk_steps : int;
  max_raw_round : int;
  decided : bool option array;
  rounds_at_decision : int array;
}

module type S = sig
  include Consensus_intf.S

  val decode_stats : t -> Bprc_strip.Edge_counters.refill_stats
end

module Make_over_snapshot
    (R : Bprc_runtime.Runtime_intf.S)
    (Snap : Bprc_snapshot.Snapshot_intf.S) =
struct
  module Dg = Bprc_strip.Distance_graph
  module Ec = Bprc_strip.Edge_counters

  type state = {
    pref : bool option;
    current_coin : int;  (** pointer in [0..K] *)
    coins : int array;  (** K+1 bounded walk counters *)
    edges : int array;  (** this process's row of the mod-3K counters *)
    ghost : int;
        (** checker-only ghost write counter: not part of the algorithm
            (nothing reads it) and excluded from the space accounting;
            it lets tests serialize scans per P3 and drive the §6.1
            virtual-round checker. *)
  }

  type t = {
    k : int;
    threshold : int;  (** δ·n *)
    m : int;
    params : Params.t;
    mem : state Snap.t;
    views : state array array;
        (** per-pid scan buffers: [views.(p)] is only ever refilled by
            process [p]'s own next scan, so a view stays readable
            across that process's yields *)
    (* The instance's one decode scratch (the simulator's arena idea
       lifted to the protocol layer): one mod-3K counter matrix plus
       one distance graph, refilled in place once per scan instead of
       allocated once per round, and incrementally, re-decoding only
       the rows whose published array changed since the previous
       decode.  Every process decodes into it (see [run]). *)
    ec : Ec.t;
    g : Dg.t;
    mode : coin_mode;
    oracle_seed : int;
    (* Meta-level instrumentation, not part of the algorithm's shared
       state. *)
    raw_round : int array;
    coin_published : int array;  (** current-round counter as last written *)
    coin_pending : int array;  (** drawn-but-unpublished step direction *)
    decided : bool option array;
    rounds_at_decision : int array;
    ghost_count : int array;
    recorder : Virtual_rounds.obs Bprc_util.Vec.t option;
    mutable scan_count : int;
    mutable write_count : int;
    mutable walk_count : int;
  }

  let create ?(name = "ads89") ?(params = Params.default)
      ?(coin_mode = Shared_walk) ?(oracle_seed = 0) ?(record_scans = false) ()
      =
    let k, delta, m = Params.validate params ~n:R.n in
    let init =
      {
        pref = None;
        current_coin = 0;
        coins = Array.make (k + 1) 0;
        edges = Array.make R.n 0;
        ghost = 0;
      }
    in
    {
      k;
      threshold = delta * R.n;
      m;
      params;
      mem = Snap.create ~name ~init ();
      views = Array.init R.n (fun _ -> Array.make R.n init);
      ec = Ec.create ~k ~n:R.n;
      g = Dg.create_scratch ~k ~n:R.n;
      mode = coin_mode;
      oracle_seed;
      raw_round = Array.make R.n 0;
      coin_published = Array.make R.n 0;
      coin_pending = Array.make R.n 0;
      decided = Array.make R.n None;
      rounds_at_decision = Array.make R.n (-1);
      ghost_count = Array.make R.n 0;
      recorder =
        (if record_scans then Some (Bprc_util.Vec.create ()) else None);
      scan_count = 0;
      write_count = 0;
      walk_count = 0;
    }

  let scan t =
    t.scan_count <- t.scan_count + 1;
    let view = t.views.(R.pid ()) in
    Snap.scan_into t.mem view;
    (match t.recorder with
    | None -> ()
    | Some rec_ ->
      Bprc_util.Vec.push rec_
        {
          Virtual_rounds.spid = R.pid ();
          ghosts = Array.map (fun st -> st.ghost) view;
          rows = Array.map (fun st -> Array.copy st.edges) view;
        });
    view

  let write t st =
    t.write_count <- t.write_count + 1;
    let me = R.pid () in
    t.ghost_count.(me) <- t.ghost_count.(me) + 1;
    Snap.write t.mem { st with ghost = t.ghost_count.(me) }

  (* Decode the scanned view into the scratch: rows into the counter
     matrix, counters into the distance graph.  Validation and error
     messages are exactly the fresh [of_rows]/[to_graph] path's.  A
     row whose published [edges] array is the one the scratch adopted
     last is skipped: published rows are never mutated ([inc_fields]
     publishes a fresh row, every other write reuses the array). *)
  let graph_into t view =
    for i = 0 to R.n - 1 do
      Ec.set_row t.ec i view.(i).edges
    done;
    Ec.to_graph_into t.ec t.g;
    t.g

  (* Round advancement (§5 [inc]): bump the coin pointer, zero the slot
     now standing for the round being entered, advance the edge
     counters (against the scratch decode of the same view).  Returns
     the round fields of the new state; [coins]/[edges] are fresh
     arrays because they are published to shared memory and must not
     alias the scratch. *)
  let inc_fields t view me =
    let st = view.(me) in
    let kp1 = t.k + 1 in
    let current_coin = (st.current_coin + 1) mod kp1 in
    let coins = Array.copy st.coins in
    coins.((current_coin + 1) mod kp1) <- 0;
    let edges = Ec.inc_row_with t.ec ~graph:t.g me in
    t.raw_round.(me) <- t.raw_round.(me) + 1;
    t.coin_published.(me) <- 0;
    t.coin_pending.(me) <- 0;
    (current_coin, coins, edges)

  type verdict = Heads | Tails | Undecided

  (* §5 [next_coin_value]: assemble the view of my current round's coin
     from every process at most K-1 rounds ahead of me; processes K or
     more ahead have withdrawn their contribution (Observation 1.2) and
     trailing processes have not contributed yet — both count as 0. *)
  let next_coin_value t g view me =
    let st = view.(me) in
    let kp1 = t.k + 1 in
    let own = st.coins.((st.current_coin + 1) mod kp1) in
    if own < -t.m || own > t.m then Heads
    else begin
      let sum = ref own in
      for j = 0 to R.n - 1 do
        if j <> me && Dg.edge g j me then begin
          let w = Dg.weight g j me in
          if w < t.k then begin
            let slot = (((view.(j).current_coin - w + 1) mod kp1) + kp1) mod kp1 in
            sum := !sum + view.(j).coins.(slot)
          end
        end
      done;
      if !sum > t.threshold then Heads
      else if !sum < -t.threshold then Tails
      else Undecided
    end

  (* §5 [flip_next_coin]: one walk step on my counter for the current
     round, clamped into the escape band ±(m+1). *)
  let flip_next_coin t view me =
    let st = view.(me) in
    let kp1 = t.k + 1 in
    let slot = (st.current_coin + 1) mod kp1 in
    let coins = Array.copy st.coins in
    let move = if R.flip () then 1 else -1 in
    t.coin_pending.(me) <- move;
    let c = coins.(slot) + move in
    coins.(slot) <-
      (if c > t.m + 1 then t.m + 1 else if c < -t.m - 1 then -t.m - 1 else c);
    t.walk_count <- t.walk_count + 1;
    coins

  let trails_by_k t g me j = Dg.dist_ge g me j t.k

  (* Do all leaders carry the same non-⊥ preference?  The pre-rewrite
     form ([Dg.leaders] + [List.for_all] + [= Some v]) allocated a
     list plus an option per comparison; this loop allocates only the
     final [Some].  Same answer: [None] when there are no leaders,
     some leader has no preference, or two leaders disagree. *)
  let leaders_agree view g =
    let n = Array.length view in
    let seen = ref false
    and ok = ref true
    and have = ref false
    and agreed = ref false in
    for i = 0 to n - 1 do
      if !ok && Dg.is_leader g i then begin
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

  let decide t me v =
    t.decided.(me) <- Some v;
    t.rounds_at_decision.(me) <- t.raw_round.(me);
    v

  (* The scratch in [run] holds this process's decode from its scan to
     its next yield: the write, or [Local_flips]'s [R.flip].  Another
     process may decode its own view into the scratch during that
     flip, so [Local_flips] re-decodes the same view (its per-pid
     buffer survives the yield) before the round bump; the flip stays
     where it was, a yield point the adversary may probe.  The
     re-decode is nearly free: no row changed unless another process
     decoded meanwhile. *)
  let run t ~input =
    let me = R.pid () in
    (* Announce: adopt the input and enter round 1. *)
    let view = scan t in
    let (_ : Dg.t) = graph_into t view in
    let current_coin, coins, edges = inc_fields t view me in
    write t { pref = Some input; current_coin; coins; edges; ghost = 0 };
    let rec loop () =
      let view = scan t in
      let g = graph_into t view in
      let my = view.(me) in
      let is_leader = Dg.is_leader g me in
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
                  if (not agrees) && not (trails_by_k t g me j) then
                    ok := false
                end
              done;
              !ok)
      in
      match my.pref with
      | Some v when can_decide -> decide t me v
      | _ -> (
        match leaders_agree view g with
        | Some v ->
          let current_coin, coins, edges = inc_fields t view me in
          write t { pref = Some v; current_coin; coins; edges; ghost = 0 };
          loop ()
        | None -> (
          match my.pref with
          | Some _ ->
            write t { my with pref = None };
            loop ()
          | None -> (
            match t.mode with
            | Local_flips ->
              let v = R.flip () in
              let (_ : Dg.t) = graph_into t view in
              let current_coin, coins, edges = inc_fields t view me in
              write t { pref = Some v; current_coin; coins; edges; ghost = 0 };
              loop ()
            | Oracle_shared ->
              let v = oracle_value t t.raw_round.(me) in
              let current_coin, coins, edges = inc_fields t view me in
              write t { pref = Some v; current_coin; coins; edges; ghost = 0 };
              loop ()
            | Shared_walk -> (
              match next_coin_value t g view me with
              | Undecided ->
                let coins = flip_next_coin t view me in
                write t { my with pref = None; coins };
                t.coin_published.(me) <-
                  coins.((my.current_coin + 1) mod (t.k + 1));
                t.coin_pending.(me) <- 0;
                loop ()
              | (Heads | Tails) as hv ->
                let v = hv = Heads in
                let current_coin, coins, edges = inc_fields t view me in
                write t
                  { pref = Some v; current_coin; coins; edges; ghost = 0 };
                loop ()))))
    in
    loop ()

  let stats t =
    {
      scans = t.scan_count;
      writes = t.write_count;
      walk_steps = t.walk_count;
      max_raw_round = Array.fold_left max 0 t.raw_round;
      decided = Array.copy t.decided;
      rounds_at_decision = Array.copy t.rounds_at_decision;
    }

  let decode_stats t = Ec.refill_stats t.ec

  let register_bits t = Params.register_bits t.params ~n:R.n

  (* The [ghost] field is checker-only meta-state and excluded from the
     space accounting ([state_bits] counts pref + pointer + coins +
     edges only); the snapshot layer adds its own control bits. *)
  let space t = Snap.space ~value_bits:(Params.state_bits t.params ~n:R.n) t.mem

  let coin_probe t =
    {
      Coin_probe.rounds = Array.copy t.raw_round;
      published = Array.copy t.coin_published;
      pending = Array.copy t.coin_pending;
      threshold = t.threshold;
    }

  let recorded_scans t =
    match t.recorder with
    | None -> []
    | Some rec_ -> Bprc_util.Vec.to_list rec_
end

module Make_batched (R : Bprc_runtime.Runtime_intf.BATCHED) =
  Make_over_snapshot (R) (Bprc_snapshot.Handshake.Make_batched (R))

module Make (R : Bprc_runtime.Runtime_intf.S) =
  Make_batched (Bprc_runtime.Runtime_intf.Loop (R))
