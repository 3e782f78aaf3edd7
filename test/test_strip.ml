open Bprc_strip

let rng seed = Bprc_rng.Splitmix.create ~seed

(* The protocol's decode path: adopt rows with [set_rows], decode with
   [to_graph_into] into a scratch graph.  [rows] are int arrays, as the
   oracles and the literals below write them. *)
let counters_of_rows ~k rows =
  let ec = Edge_counters.create ~k ~n:(Array.length rows) in
  Edge_counters.set_rows ec (Strip_rows.matrix_of_ints rows);
  ec

let graph_of ec =
  let g =
    Distance_graph.create_scratch ~k:(Edge_counters.k ec)
      ~n:(Edge_counters.n ec)
  in
  Edge_counters.to_graph_into ec g;
  g

let leader_flags g = List.init (Distance_graph.n g) (Distance_graph.is_leader g)

(* ------------------------------------------------------------------ *)
(* Token game                                                          *)
(* ------------------------------------------------------------------ *)

let test_shrink_basic () =
  Alcotest.(check (array int))
    "gap compressed" [| 0; 2 |]
    (Token_game.shrink ~k:2 [| 0; 7 |]);
  Alcotest.(check (array int))
    "small gaps kept" [| 0; 1; 3 |]
    (Token_game.shrink ~k:2 [| 0; 1; 3 |]);
  Alcotest.(check (array int))
    "ties preserved" [| 5; 5; 5 |]
    (Token_game.shrink ~k:3 [| 5; 5; 5 |]);
  Alcotest.(check (array int))
    "chain of big gaps" [| 0; 2; 4 |]
    (Token_game.shrink ~k:2 [| 0; 10; 100 |]);
  Alcotest.(check (array int))
    "unsorted input" [| 2; 0 |]
    (Token_game.shrink ~k:2 [| 9; 0 |])

let test_normalize_basic () =
  Alcotest.(check (array int))
    "max at K*n" [| 3; 4 |]
    (Token_game.normalize ~k:2 [| 0; 1 |]);
  Alcotest.(check (array int))
    "already there" [| 4; 4 |]
    (Token_game.normalize ~k:2 [| 4; 4 |])

let test_game_positions_bounded () =
  let g = Token_game.create ~k:2 ~n:4 in
  let r = rng 42 in
  for _ = 1 to 2000 do
    Token_game.move g (Bprc_rng.Splitmix.int r 4);
    let pos = Token_game.positions g in
    Array.iter
      (fun p ->
        if p < 0 || p > 2 * 4 then
          Alcotest.failf "position %d outside [0, K*n]" p)
      pos
  done;
  (* Raw positions grew far beyond the bound. *)
  let raw = Token_game.raw_positions g in
  Alcotest.(check bool) "raw game unbounded" true
    (Array.exists (fun p -> p > 2 * 4) raw)

let test_game_spread_bounded () =
  let g = Token_game.create ~k:3 ~n:5 in
  let r = rng 7 in
  for _ = 1 to 1000 do
    Token_game.move g (Bprc_rng.Splitmix.int r 5);
    if Token_game.spread g > 3 * 4 then Alcotest.fail "spread exceeds K*(n-1)"
  done

let test_game_tracks_small_gaps_exactly () =
  (* While all tokens stay within K of each other, the shrunken game is
     the raw game up to translation. *)
  let g = Token_game.create ~k:5 ~n:3 in
  (* Interleave moves so gaps stay <= 2. *)
  List.iter (Token_game.move g) [ 0; 1; 2; 0; 1; 2; 0 ];
  let pos = Token_game.positions g in
  let raw = Token_game.raw_positions g in
  let diff01 = pos.(0) - pos.(1) and rdiff01 = raw.(0) - raw.(1) in
  let diff02 = pos.(0) - pos.(2) and rdiff02 = raw.(0) - raw.(2) in
  Alcotest.(check int) "pair 0-1 exact" rdiff01 diff01;
  Alcotest.(check int) "pair 0-2 exact" rdiff02 diff02

let prop_shrink_idempotent =
  QCheck.Test.make ~name:"shrink is idempotent" ~count:300
    QCheck.(pair (int_range 1 4) (array_of_size Gen.(int_range 1 6) (int_range 0 30)))
    (fun (k, pos) ->
      let s = Token_game.shrink ~k pos in
      Token_game.shrink ~k s = s)

let prop_shrink_preserves_order =
  QCheck.Test.make ~name:"shrink preserves relative order" ~count:300
    QCheck.(pair (int_range 1 4) (array_of_size Gen.(int_range 2 6) (int_range 0 30)))
    (fun (k, pos) ->
      let s = Token_game.shrink ~k pos in
      let n = Array.length pos in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let before = compare pos.(i) pos.(j) in
          let after = compare s.(i) s.(j) in
          if before <> after then ok := false
        done
      done;
      !ok)

let prop_shrink_caps_consecutive_gaps =
  QCheck.Test.make ~name:"shrunken consecutive gaps <= K" ~count:300
    QCheck.(pair (int_range 1 4) (array_of_size Gen.(int_range 2 6) (int_range 0 50)))
    (fun (k, pos) ->
      let s = Token_game.shrink ~k pos in
      let sorted = Array.copy s in
      Array.sort compare sorted;
      let ok = ref true in
      for i = 1 to Array.length sorted - 1 do
        if sorted.(i) - sorted.(i - 1) > k then ok := false
      done;
      !ok)

let prop_normalize_range =
  QCheck.Test.make ~name:"normalized shrunken positions in [0, K*n]" ~count:300
    QCheck.(pair (int_range 1 4) (array_of_size Gen.(int_range 1 6) (int_range 0 50)))
    (fun (k, pos) ->
      let p = Token_game.normalize ~k (Token_game.shrink ~k pos) in
      Array.for_all (fun x -> x >= 0 && x <= k * Array.length pos) p)

(* ------------------------------------------------------------------ *)
(* Distance graph                                                      *)
(* ------------------------------------------------------------------ *)

let test_graph_of_positions () =
  let g = Distance_graph.of_positions ~k:2 [| 5; 3; 3 |] in
  Alcotest.(check bool) "edge 0->1" true (Distance_graph.edge g 0 1);
  Alcotest.(check int) "w(0,1)" 2 (Distance_graph.weight g 0 1);
  Alcotest.(check bool) "no edge 1->0" false (Distance_graph.edge g 1 0);
  Alcotest.(check bool) "level both ways" true
    (Distance_graph.edge g 1 2 && Distance_graph.edge g 2 1);
  Alcotest.(check int) "level weight" 0 (Distance_graph.weight g 1 2)

let test_graph_weight_cap () =
  let g = Distance_graph.of_positions ~k:2 [| 9; 0 |] in
  Alcotest.(check int) "capped at K" 2 (Distance_graph.weight g 0 1)

let test_graph_dist_longest_path () =
  (* Positions 0,2,4 with K=3: direct edge 2->0 has weight 3 (capped at
     neither) ... use K=3, positions 0, 3, 6: direct edge from top to
     bottom capped at 3, but the path through the middle sums to 6. *)
  let g = Distance_graph.of_positions ~k:3 [| 6; 3; 0 |] in
  Alcotest.(check int) "direct weight capped" 3 (Distance_graph.weight g 0 2);
  Alcotest.(check (option int)) "dist uses path" (Some 6)
    (Distance_graph.dist g 0 2);
  Alcotest.(check (option int)) "unreachable upward" None
    (Distance_graph.dist g 2 0)

let test_graph_leaders () =
  let g = Distance_graph.of_positions ~k:2 [| 4; 4; 1 |] in
  Alcotest.(check (list bool)) "two level leaders" [ true; true; false ]
    (leader_flags g);
  let g2 = Distance_graph.of_positions ~k:2 [| 1; 5; 0 |] in
  Alcotest.(check (list bool)) "single leader" [ false; true; false ]
    (leader_flags g2)

let test_graph_properties_random () =
  let r = rng 11 in
  for _ = 1 to 200 do
    let n = 2 + Bprc_rng.Splitmix.int r 5 in
    let k = 1 + Bprc_rng.Splitmix.int r 3 in
    let pos = Array.init n (fun _ -> Bprc_rng.Splitmix.int r 20) in
    let g = Distance_graph.of_positions ~k pos in
    if not (Distance_graph.no_positive_cycle g) then
      Alcotest.fail "positive cycle";
    if not (Distance_graph.weights_in_range g) then
      Alcotest.fail "weight out of range";
    if not (Distance_graph.total_order_consistent g) then
      Alcotest.fail "pair inconsistency"
  done

let test_graph_dist_matches_shrunken_positions () =
  (* Property 5: dist(i,j) equals the shrunken position difference. *)
  let r = rng 13 in
  for _ = 1 to 200 do
    let n = 2 + Bprc_rng.Splitmix.int r 4 in
    let k = 1 + Bprc_rng.Splitmix.int r 3 in
    let raw = Array.init n (fun _ -> Bprc_rng.Splitmix.int r 25) in
    let pos = Token_game.shrink ~k raw in
    let g = Distance_graph.of_positions ~k pos in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && pos.(i) >= pos.(j) then
          match Distance_graph.dist g i j with
          | Some d ->
            if d <> pos.(i) - pos.(j) then
              Alcotest.failf "dist %d<>%d for %d->%d" d (pos.(i) - pos.(j)) i j
          | None -> Alcotest.fail "missing dist"
      done
    done
  done

let test_claim_4_1_abstract_inc () =
  (* Claim 4.1: G(move_i(S)) = inc(i, G(S)) along random play of the
     normalized shrunken game.  The abstract [inc] lives only in the
     frozen oracle: the strip itself advances counter rows
     ([Distance_graph.advance_row]), which the lockstep tests below pin
     against the oracle's [inc_row]. *)
  let r = rng 17 in
  for _ = 1 to 60 do
    let n = 2 + Bprc_rng.Splitmix.int r 3 in
    let k = 1 + Bprc_rng.Splitmix.int r 3 in
    let game = Token_game.create ~k ~n in
    for _step = 1 to 40 do
      let i = Bprc_rng.Splitmix.int r n in
      let g_before =
        Distance_graph_ref.of_positions ~k (Token_game.positions game)
      in
      Token_game.move game i;
      let g_after =
        Distance_graph_ref.of_positions ~k (Token_game.positions game)
      in
      let g_inc = Distance_graph_ref.inc g_before i in
      if not (Distance_graph_ref.equal g_after g_inc) then
        Alcotest.failf "Claim 4.1 fails: n=%d k=%d move %d@ after=%a inc=%a" n k
          i Distance_graph_ref.pp g_after Distance_graph_ref.pp g_inc
    done
  done

(* ------------------------------------------------------------------ *)
(* Edge counters                                                       *)
(* ------------------------------------------------------------------ *)

let test_counters_initial_level () =
  let c = Edge_counters.create ~k:2 ~n:3 in
  Alcotest.(check bool) "valid" true (Edge_counters.valid c);
  Alcotest.(check (list bool)) "all leaders initially" [ true; true; true ]
    (leader_flags (graph_of c))

let test_counters_track_game_sequentially () =
  (* The fundamental encoding theorem, sequentially: playing inc_graph
     in lockstep with the normalized shrunken game keeps
     the decode of the counters = G(game). *)
  let r = rng 23 in
  for _ = 1 to 40 do
    let n = 2 + Bprc_rng.Splitmix.int r 3 in
    let k = 1 + Bprc_rng.Splitmix.int r 3 in
    let game = Token_game.create ~k ~n in
    let counters = Edge_counters.create ~k ~n in
    for _step = 1 to 60 do
      let i = Bprc_rng.Splitmix.int r n in
      Token_game.move game i;
      Edge_counters.apply_inc counters i;
      if not (Edge_counters.valid counters) then
        Alcotest.fail "counters undecodable";
      let expected = Distance_graph.of_positions ~k (Token_game.positions game) in
      let got = graph_of counters in
      if not (Distance_graph.equal expected got) then
        Alcotest.failf "counters diverge from game: n=%d k=%d@ game=%a got=%a"
          n k Distance_graph.pp expected Distance_graph.pp got
    done
  done

let test_counters_stay_bounded () =
  let c = Edge_counters.create ~k:2 ~n:3 in
  let r = rng 29 in
  for _ = 1 to 3000 do
    Edge_counters.apply_inc c (Bprc_rng.Splitmix.int r 3)
  done;
  Array.iter
    (Array.iter (fun x ->
         if x < 0 || x >= 6 then Alcotest.failf "counter %d out of [0,3K)" x))
    (Strip_rows.matrix_to_ints (Edge_counters.rows c))

let test_counters_set_row_validation () =
  let c () = Edge_counters.create ~k:2 ~n:2 in
  let rows = Strip_rows.matrix_of_ints in
  Alcotest.check_raises "range check"
    (Invalid_argument "Edge_counters.set_row: counter out of range") (fun () ->
      Edge_counters.set_rows (c ()) (rows [| [| 0; 6 |]; [| 0; 0 |] |]));
  Alcotest.check_raises "row length check"
    (Invalid_argument "Edge_counters.set_row: not square") (fun () ->
      Edge_counters.set_rows (c ()) (rows [| [| 0 |]; [| 0; 0 |] |]));
  Alcotest.check_raises "row count check"
    (Invalid_argument "Edge_counters.set_rows: not square") (fun () ->
      Edge_counters.set_rows (c ()) (rows [| [| 0; 0 |] |]));
  Alcotest.check_raises "row index check"
    (Invalid_argument "Edge_counters.set_row: no such row") (fun () ->
      Edge_counters.set_row (c ()) 2 (Strip_rows.of_ints [| 0; 0 |]));
  (* Even an empty row never adopted before is checked. *)
  Alcotest.check_raises "set_row empty row"
    (Invalid_argument "Edge_counters.set_row: not square") (fun () ->
      Edge_counters.set_row (c ()) 0 Bytes.empty)

let test_counters_leader_never_runs_away () =
  (* A single process inc'ing forever saturates at lead K over everyone
     and stops moving its pointers (the guard blocks it). *)
  let c = Edge_counters.create ~k:2 ~n:3 in
  for _ = 1 to 50 do
    Edge_counters.apply_inc c 0
  done;
  let g = graph_of c in
  Alcotest.(check int) "lead saturated at K" 2 (Distance_graph.weight g 0 1);
  Alcotest.(check int) "lead saturated at K" 2 (Distance_graph.weight g 0 2);
  Alcotest.(check (list bool)) "sole leader" [ true; false; false ]
    (leader_flags g)

let test_counters_trailing_catches_up () =
  let c = Edge_counters.create ~k:2 ~n:2 in
  for _ = 1 to 10 do
    Edge_counters.apply_inc c 0
  done;
  (* Process 1 trails by K = 2; after two incs it is level. *)
  Edge_counters.apply_inc c 1;
  let g = graph_of c in
  Alcotest.(check int) "gap closed to 1" 1 (Distance_graph.weight g 0 1);
  Edge_counters.apply_inc c 1;
  let g = graph_of c in
  Alcotest.(check int) "level" 0 (Distance_graph.weight g 0 1);
  Alcotest.(check bool) "level both edges" true (Distance_graph.edge g 1 0)

let prop_counters_match_game =
  QCheck.Test.make ~name:"edge counters track shrunken game (qcheck)" ~count:60
    QCheck.(
      pair (int_range 1 3)
        (list_of_size Gen.(int_range 1 50) (int_range 0 3)))
    (fun (k, moves) ->
      let n = 4 in
      let game = Token_game.create ~k ~n in
      let counters = Edge_counters.create ~k ~n in
      List.for_all
        (fun i ->
          Token_game.move game i;
          Edge_counters.apply_inc counters i;
          Edge_counters.valid counters
          && Distance_graph.equal
               (Distance_graph.of_positions ~k (Token_game.positions game))
               (graph_of counters))
        moves)

let suite =
  [
    Alcotest.test_case "shrink basics" `Quick test_shrink_basic;
    Alcotest.test_case "normalize basics" `Quick test_normalize_basic;
    Alcotest.test_case "game positions bounded" `Quick test_game_positions_bounded;
    Alcotest.test_case "game spread bounded" `Quick test_game_spread_bounded;
    Alcotest.test_case "game exact for small gaps" `Quick
      test_game_tracks_small_gaps_exactly;
    QCheck_alcotest.to_alcotest prop_shrink_idempotent;
    QCheck_alcotest.to_alcotest prop_shrink_preserves_order;
    QCheck_alcotest.to_alcotest prop_shrink_caps_consecutive_gaps;
    QCheck_alcotest.to_alcotest prop_normalize_range;
    Alcotest.test_case "graph of positions" `Quick test_graph_of_positions;
    Alcotest.test_case "graph weight cap" `Quick test_graph_weight_cap;
    Alcotest.test_case "graph dist longest path" `Quick
      test_graph_dist_longest_path;
    Alcotest.test_case "graph leaders" `Quick test_graph_leaders;
    Alcotest.test_case "graph properties random" `Quick
      test_graph_properties_random;
    Alcotest.test_case "graph dist = position diff" `Quick
      test_graph_dist_matches_shrunken_positions;
    Alcotest.test_case "Claim 4.1 (abstract inc)" `Quick test_claim_4_1_abstract_inc;
    Alcotest.test_case "counters: initial level" `Quick test_counters_initial_level;
    Alcotest.test_case "counters: track game" `Quick
      test_counters_track_game_sequentially;
    Alcotest.test_case "counters: bounded" `Quick test_counters_stay_bounded;
    Alcotest.test_case "counters: set_row validation" `Quick
      test_counters_set_row_validation;
    Alcotest.test_case "counters: leader saturates" `Quick
      test_counters_leader_never_runs_away;
    Alcotest.test_case "counters: trailing catches up" `Quick
      test_counters_trailing_catches_up;
    QCheck_alcotest.to_alcotest prop_counters_match_game;
  ]

(* Appended: decoding robustness. *)
let test_counters_forbidden_band () =
  (* Rows manufactured so a pair decodes into (K, 2K): invalid, and
     to_graph_into must refuse. *)
  let rows = [| [| 0; 3 |]; [| 0; 0 |] |] in
  (* a = (3 - 0) mod 6 = 3 ∈ (2, 4) for K = 2. *)
  let c = counters_of_rows ~k:2 rows in
  Alcotest.(check bool) "invalid detected" false (Edge_counters.valid c);
  Alcotest.check_raises "to_graph_into refuses"
    (Invalid_argument "Edge_counters.to_graph_into: undecodable state")
    (fun () -> ignore (graph_of c))

let test_counters_wrapped_decode () =
  (* Pointer differences are cyclic: a pair whose pointers have wrapped
     past 3K decodes identically to the unwrapped encoding. *)
  let k = 2 in
  let m = 3 * k in
  (* 0 leads 1 by 2, encoded with 1's pointer numerically ABOVE 0's:
     a = (1 - 5) mod 6 = 2. *)
  let c = counters_of_rows ~k [| [| 0; 1 |]; [| 5; 0 |] |] in
  Alcotest.(check int) "wrapped difference" 2
    (Bprc_strip.Edge_counters.decode_pair c 0 1);
  Alcotest.(check int) "reverse direction" (m - 2)
    (Bprc_strip.Edge_counters.decode_pair c 1 0);
  Alcotest.(check bool) "valid" true (Bprc_strip.Edge_counters.valid c);
  let g = graph_of c in
  Alcotest.(check int) "decoded weight" 2
    (Bprc_strip.Distance_graph.weight g 0 1);
  Alcotest.(check bool) "no reverse edge" false
    (Bprc_strip.Distance_graph.edge g 1 0)

let test_counters_translation_invariance () =
  (* decode_pair and valid depend only on the cyclic difference of the
     two pointers: shifting both by any constant mod 3K is invisible. *)
  let k = 2 in
  let m = 3 * k in
  for e01 = 0 to m - 1 do
    for e10 = 0 to m - 1 do
      let mk a b = counters_of_rows ~k [| [| 0; a |]; [| b; 0 |] |] in
      let base = mk e01 e10 in
      let a = Bprc_strip.Edge_counters.decode_pair base 0 1 in
      for shift = 1 to m - 1 do
        let c = mk ((e01 + shift) mod m) ((e10 + shift) mod m) in
        Alcotest.(check int) "decode is shift-invariant" a
          (Bprc_strip.Edge_counters.decode_pair c 0 1);
        Alcotest.(check bool) "validity is shift-invariant"
          (Bprc_strip.Edge_counters.valid base)
          (Bprc_strip.Edge_counters.valid c)
      done
    done
  done

let test_counters_wrap_boundaries_with_compression () =
  (* Regression, parameterized over K ∈ {1,2,3}: two processes trade
     moves for many multiples of 3K — driving their pointer pair around
     the mod-3K cycle repeatedly, so every wrap boundary (3K-1 -> 0) is
     crossed — while a third process never moves, so the strip's gap
     compression to K (§4.1) is simultaneously active on both stalled
     pairs.  At every step the decoded graph must equal the normalized
     shrunken game's, rows must stay inside [0, 3K), the stalled pairs
     must stay saturated at weight exactly K, and the moving pair's raw
     cyclic difference must never enter the forbidden band (K, 2K). *)
  List.iter
    (fun k ->
      let n = 3 in
      let cyc = 3 * k in
      let game = Token_game.create ~k ~n in
      let counters = Edge_counters.create ~k ~n in
      let step i =
        Token_game.move game i;
        Edge_counters.apply_inc counters i;
        if not (Edge_counters.valid counters) then
          Alcotest.failf "k=%d: counters undecodable" k;
        Array.iter
          (Array.iter (fun x ->
               if x < 0 || x >= cyc then
                 Alcotest.failf "k=%d: pointer %d outside [0,3K)" k x))
          (Strip_rows.matrix_to_ints (Edge_counters.rows counters));
        let a = Edge_counters.decode_pair counters 0 1 in
        if a > k && a < 2 * k then
          Alcotest.failf "k=%d: pair (0,1) decoded into forbidden band (%d)" k a;
        let expected =
          Distance_graph.of_positions ~k (Token_game.positions game)
        in
        let got = graph_of counters in
        if not (Distance_graph.equal expected got) then
          Alcotest.failf "k=%d: decode diverges from game after wrap: %a vs %a"
            k Distance_graph.pp expected Distance_graph.pp got
      in
      (* Phase 1: saturate both leads over the stalled process 2. *)
      for _ = 1 to k do
        step 0;
        step 1
      done;
      (* Phase 2: 8 full trips around the cycle; each round advances
         both pointers of the (0,1) pair by one, so each crosses the
         wrap boundary 8 times while the (0,2)/(1,2) gaps stay
         compressed at K. *)
      for round = 1 to 8 * cyc do
        step 0;
        step 1;
        let g = graph_of counters in
        Alcotest.(check int)
          (Printf.sprintf "k=%d round %d: gap to stalled saturated" k round)
          k
          (Distance_graph.weight g 0 2);
        Alcotest.(check int)
          (Printf.sprintf "k=%d round %d: raw gap grows past K" k round)
          k
          (Distance_graph.weight g 1 2)
      done;
      (* The raw game has run far past any bound; the counters never
         left [0, 3K). *)
      let raw = Token_game.raw_positions game in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d: raw positions exceeded the cycle" k)
        true
        (raw.(0) > cyc);
      (* Phase 3: the stalled process catches up across K wrap-fresh
         pointers; each inc must close the gap by exactly one. *)
      for c = 1 to k do
        step 2;
        let g = graph_of counters in
        Alcotest.(check int)
          (Printf.sprintf "k=%d: catch-up %d closes gap" k c)
          (k - c)
          (Distance_graph.weight g 0 2)
      done)
    [ 1; 2; 3 ]

(* Every counter lies in [0, 3K) and is stored in one byte, so the
   strip takes K up to 85 and refuses K = 86 rather than wrap a
   counter; a weight is one signed byte, so [of_positions] takes K up
   to 127. *)
let test_counters_k_fits_a_byte () =
  ignore (Edge_counters.create ~k:85 ~n:2 : Edge_counters.t);
  ignore (Distance_graph.create_scratch ~k:85 ~n:2 : Distance_graph.t);
  Alcotest.check_raises "counters at K=86"
    (Invalid_argument "Edge_counters.create: k above 85 does not fit a byte")
    (fun () -> ignore (Edge_counters.create ~k:86 ~n:2 : Edge_counters.t));
  Alcotest.check_raises "scratch graph at K=86"
    (Invalid_argument
       "Distance_graph.create_scratch: k above 85 does not fit a byte")
    (fun () ->
      ignore (Distance_graph.create_scratch ~k:86 ~n:2 : Distance_graph.t));
  Alcotest.(check int) "weight 127" 127
    (Distance_graph.weight
       (Distance_graph.of_positions ~k:127 [| 500; 0 |])
       0 1);
  Alcotest.check_raises "positions at K=128"
    (Invalid_argument
       "Distance_graph.of_positions: k above 127 does not fit a byte")
    (fun () ->
      ignore
        (Distance_graph.of_positions ~k:128 [| 1; 0 |] : Distance_graph.t));
  (* The top counter value 3K - 1 = 254 round-trips, and one past it is
     refused. *)
  let c = Edge_counters.create ~k:85 ~n:2 in
  Edge_counters.set_rows c
    (Strip_rows.matrix_of_ints [| [| 0; 254 |]; [| 254; 0 |] |]);
  Alcotest.(check int) "level at the top value" 0
    (Edge_counters.decode_pair c 0 1);
  Alcotest.check_raises "counter 3K"
    (Invalid_argument "Edge_counters.set_row: counter out of range") (fun () ->
      Edge_counters.set_row c 0 (Strip_rows.of_ints [| 0; 255 |]))

(* A published row is its own bytes: a row [inc_row_with] returned
   stays as it was while the counters it came from adopt other rows
   and advance in place, and at n = 128 it takes n/8 words of payload
   plus a header and the padding word. *)
let test_published_row_layout () =
  let k = 2 and n = 4 in
  let c = Edge_counters.create ~k ~n in
  Edge_counters.apply_inc c 1;
  let g = graph_of c in
  let row = Edge_counters.inc_row_with c ~graph:g 0 in
  let kept = Bytes.copy row in
  Edge_counters.set_row c 0 row;
  for i = 0 to (3 * k * n) - 1 do
    Edge_counters.apply_inc c (i mod n)
  done;
  Edge_counters.set_row c 0 (Strip_rows.of_ints [| 0; 5; 5; 5 |]);
  Edge_counters.apply_inc c 0;
  Alcotest.(check (array int)) "published row unchanged"
    (Strip_rows.to_ints kept) (Strip_rows.to_ints row);
  let n = 128 in
  let c = Edge_counters.create ~k ~n in
  let row = Edge_counters.inc_row_with c ~graph:(graph_of c) 0 in
  Alcotest.(check int) "one byte per counter" n (Bytes.length row);
  let words = Obj.reachable_words (Obj.repr row) in
  if words > ((n + 7) / 8) + 2 then
    Alcotest.failf "an n=128 row takes %d words" words

let suite =
  suite
  @ [
      Alcotest.test_case "counters: K fits a byte" `Quick
        test_counters_k_fits_a_byte;
      Alcotest.test_case "counters: published row layout" `Quick
        test_published_row_layout;
      Alcotest.test_case "counters: forbidden band" `Quick
        test_counters_forbidden_band;
      Alcotest.test_case "counters: wrapped decode" `Quick
        test_counters_wrapped_decode;
      Alcotest.test_case "counters: decode translation-invariant" `Quick
        test_counters_translation_invariance;
      Alcotest.test_case "counters: wrap boundaries x gap compression" `Quick
        test_counters_wrap_boundaries_with_compression;
    ]

(* ------------------------------------------------------------------ *)
(* Differential: the strip's decode path vs the frozen reference       *)
(* implementations in test/oracles                                     *)
(* ------------------------------------------------------------------ *)

(* The flat modules answer max-path queries from a reconstructed
   position vector when the graph is consistent and fall back to the
   reference relaxation otherwise.  These tests run the decode the
   protocol runs (set_row/set_rows -> to_graph_into -> queries ->
   inc_row_with) and assert that it is observably identical to the
   reference on both paths. *)

let graphs_agree ~ctx g gr =
  let n = Distance_graph.n g in
  if n <> Distance_graph_ref.n gr || Distance_graph.k g <> Distance_graph_ref.k gr
  then Alcotest.failf "%s: shape mismatch" ctx;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let e = Distance_graph.edge g i j
        and er = Distance_graph_ref.edge gr i j in
        if e <> er then
          Alcotest.failf "%s: edge (%d,%d) flat=%b ref=%b" ctx i j e er;
        if e && Distance_graph.weight g i j <> Distance_graph_ref.weight gr i j
        then
          Alcotest.failf "%s: weight (%d,%d) flat=%d ref=%d" ctx i j
            (Distance_graph.weight g i j)
            (Distance_graph_ref.weight gr i j)
      end
    done
  done

(* [advance_row] against the reference's per-pair [inc_graph] guard:
   one [edge]/[on_max_path]/[weight] query per pair. *)
let advance_row_agrees ~ctx g gr i =
  let n = Distance_graph.n g and k = Distance_graph.k g in
  let row = Bytes.make n '\000' in
  Distance_graph.advance_row g i row;
  for j = 0 to n - 1 do
    let want =
      j <> i
      && (Distance_graph_ref.on_max_path gr j i
         || (Distance_graph_ref.edge gr i j
            && Distance_graph_ref.weight gr i j < k))
    in
    if Bytes.get_uint8 row j <> Bool.to_int want then
      Alcotest.failf "%s: advance_row %d, pair %d: flat %d, ref %b" ctx i j
        (Bytes.get_uint8 row j) want
  done

let leaders_agree ~ctx g gr =
  let lr = Distance_graph_ref.leaders gr in
  for i = 0 to Distance_graph.n g - 1 do
    if Distance_graph.is_leader g i <> List.mem i lr then
      Alcotest.failf "%s: is_leader %d disagrees with the reference" ctx i
  done

(* [dist_ge a b] across the bounds bracketing the protocol's
   trails-by-K query. *)
let dist_ge_agrees ~ctx g gr a b =
  let dr = Distance_graph_ref.dist gr a b in
  for bound = -1 to Distance_graph.k g + 1 do
    let want = match dr with None -> false | Some d -> d >= bound in
    if Distance_graph.dist_ge g a b bound <> want then
      Alcotest.failf "%s: dist_ge (%d,%d) >= %d diverges" ctx a b bound
  done

(* Full max-path query comparison: O(n^4)+ in the reference, so callers
   budget it.  [pairs = None] compares every ordered pair's [dist] and
   every process's advance row; [Some b] compares [b] random pairs and
   one random process's row. *)
let max_path_queries_agree ~ctx ?pairs g gr r =
  let n = Distance_graph.n g in
  let check_pair (i, j) =
    if i <> j then begin
      let d = Distance_graph.dist g i j
      and dr = Distance_graph_ref.dist gr i j in
      if d <> dr then
        Alcotest.failf "%s: dist (%d,%d) flat=%s ref=%s" ctx i j
          (match d with Some x -> string_of_int x | None -> "-")
          (match dr with Some x -> string_of_int x | None -> "-")
    end
  in
  (match pairs with
  | None ->
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        check_pair (i, j)
      done;
      advance_row_agrees ~ctx g gr i
    done
  | Some budget ->
    for _ = 1 to budget do
      check_pair (Bprc_rng.Splitmix.int r n, Bprc_rng.Splitmix.int r n)
    done;
    advance_row_agrees ~ctx g gr (Bprc_rng.Splitmix.int r n));
  leaders_agree ~ctx g gr

let counters_agree ~ctx flat refc =
  let n = Edge_counters.n flat in
  if
    Strip_rows.matrix_to_ints (Edge_counters.rows flat)
    <> Edge_counters_ref.rows refc
  then
    Alcotest.failf "%s: rows diverge" ctx;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if
        i <> j
        && Edge_counters.decode_pair flat i j
           <> Edge_counters_ref.decode_pair refc i j
      then Alcotest.failf "%s: decode_pair (%d,%d) diverges" ctx i j
    done
  done;
  if Edge_counters.valid flat <> Edge_counters_ref.valid refc then
    Alcotest.failf "%s: validity diverges" ctx

(* One lockstep move of [i], with [g] holding [flat]'s decode: [flat]
   takes the row [inc_row_with] computes against [g] — adopted the
   protocol's way with [set_row], or through [apply_inc] — and the
   reference takes its own [inc_row]; the rows, the counters and the
   refilled decode must agree.  Returns the reference's decode. *)
let lockstep_move ~ctx ~via_apply flat g refc i =
  let row_f = Edge_counters.inc_row_with flat ~graph:g i in
  if Strip_rows.to_ints row_f <> Edge_counters_ref.inc_row refc i then
    Alcotest.failf "%s: inc_row_with diverges" ctx;
  if via_apply then Edge_counters.apply_inc flat i
  else Edge_counters.set_row flat i row_f;
  Edge_counters_ref.apply_inc refc i;
  counters_agree ~ctx flat refc;
  Edge_counters.to_graph_into flat g;
  let gr = Edge_counters_ref.to_graph refc in
  graphs_agree ~ctx g gr;
  gr

(* Lockstep random walk: one shared op sequence applied to both
   implementations, every observable compared after every step.  The
   flat side alternates [set_row] and [apply_inc], so its one scratch
   graph sees both incremental one-row refills and full ones.
   [stall] freezes the last process so the K-gap compression stays
   active while the movers' pointers wrap the mod-3K cycle; [full]
   turns on the exhaustive (reference-priced) max-path comparison. *)
let diff_counters_walk ~k ~n ~steps ~seed ~stall ~full ~sample =
  let flat = Edge_counters.create ~k ~n in
  let refc = Edge_counters_ref.create ~k ~n in
  let g = graph_of flat in
  let r = rng seed in
  let movers = if stall && n > 1 then n - 1 else n in
  for step = 1 to steps do
    let i = Bprc_rng.Splitmix.int r movers in
    let ctx = Printf.sprintf "k=%d n=%d step %d (mover %d)" k n step i in
    let gr = lockstep_move ~ctx ~via_apply:(step mod 3 = 0) flat g refc i in
    if full then max_path_queries_agree ~ctx g gr r
    else if step mod sample = 0 then
      max_path_queries_agree ~ctx ~pairs:4 g gr r
  done;
  let st = Edge_counters.refill_stats flat in
  if st.Edge_counters.incremental_refills = 0 then
    Alcotest.failf "k=%d n=%d: no incremental refill" k n

let test_diff_counters_small () =
  (* 10k+ lockstep steps across the required widths; the reference's
     O(n^4) max-path answers bound how many full comparisons n=32
     affords. *)
  diff_counters_walk ~k:2 ~n:2 ~steps:2000 ~seed:11 ~stall:false ~full:true
    ~sample:1;
  diff_counters_walk ~k:1 ~n:2 ~steps:1000 ~seed:12 ~stall:false ~full:true
    ~sample:1;
  diff_counters_walk ~k:2 ~n:4 ~steps:2500 ~seed:13 ~stall:false ~full:true
    ~sample:1;
  diff_counters_walk ~k:3 ~n:4 ~steps:1500 ~seed:14 ~stall:true ~full:true
    ~sample:1;
  diff_counters_walk ~k:2 ~n:8 ~steps:1500 ~seed:15 ~stall:false ~full:false
    ~sample:25;
  diff_counters_walk ~k:2 ~n:8 ~steps:1500 ~seed:16 ~stall:true ~full:false
    ~sample:25

let test_diff_counters_wide () =
  diff_counters_walk ~k:2 ~n:32 ~steps:40 ~seed:17 ~stall:true ~full:false
    ~sample:10

let test_diff_counters_wrap_compression () =
  (* The wrap-boundary x gap-compression pattern of
     [test_counters_wrap_boundaries_with_compression], in lockstep:
     two movers drive their pointer pair around the full mod-3K cycle
     eight times while the third process stalls at a saturated K-gap,
     then the stalled process catches up. *)
  List.iter
    (fun k ->
      let n = 3 in
      let flat = Edge_counters.create ~k ~n in
      let refc = Edge_counters_ref.create ~k ~n in
      let g = graph_of flat in
      let r = rng (100 + k) in
      let step i =
        let ctx = Printf.sprintf "wrap k=%d mover %d" k i in
        let gr = lockstep_move ~ctx ~via_apply:false flat g refc i in
        max_path_queries_agree ~ctx g gr r
      in
      for _ = 1 to k do
        step 0;
        step 1
      done;
      for _ = 1 to 8 * 3 * k do
        step 0;
        step 1
      done;
      for _ = 1 to k do
        step 2
      done)
    [ 1; 2; 3 ]

(* Stale-view rows: [inc_row_with] on states assembled with [set_rows]
   from two different points of the same walk (a scanned view can mix
   rows of different ages).  Both implementations must agree even on
   these not-necessarily-position-consistent states — the flat
   module's relaxation fallback path. *)
let test_diff_counters_stale_views () =
  let k = 2 and n = 4 in
  let r = rng 77 in
  let live = Edge_counters_ref.create ~k ~n in
  let old_rows = ref (Edge_counters_ref.rows live) in
  for step = 1 to 600 do
    let i = Bprc_rng.Splitmix.int r n in
    Edge_counters_ref.apply_inc live i;
    if Bprc_rng.Splitmix.int r 5 = 0 then old_rows := Edge_counters_ref.rows live;
    (* Mix: each row either current or from the stashed older state. *)
    let mixed =
      Array.init n (fun p ->
          if Bprc_rng.Splitmix.bool r then (Edge_counters_ref.rows live).(p)
          else !old_rows.(p))
    in
    let flat = counters_of_rows ~k mixed in
    let refc = Edge_counters_ref.of_rows ~k mixed in
    let ctx = Printf.sprintf "stale step %d" step in
    counters_agree ~ctx flat refc;
    if Edge_counters.valid flat then begin
      let g = graph_of flat in
      let gr = Edge_counters_ref.to_graph refc in
      graphs_agree ~ctx g gr;
      max_path_queries_agree ~ctx g gr r;
      for i = 0 to n - 1 do
        if
          Strip_rows.to_ints (Edge_counters.inc_row_with flat ~graph:g i)
          <> Edge_counters_ref.inc_row refc i
        then Alcotest.failf "%s: inc_row_with %d diverges" ctx i
      done
    end
  done

(* Arbitrary (not counter-decodable) graphs: random presence/weight
   matrices, including negative weights, positive cycles and
   non-total-order shapes, written straight into a scratch graph's
   weights — everything the position fast path must reject and the
   fallback must answer exactly like the reference, on graphs no
   counter state reaches. *)
let test_diff_graph_arbitrary () =
  let r = rng 31 in
  for case = 1 to 400 do
    let n = 2 + Bprc_rng.Splitmix.int r 4 in
    let k = 1 + Bprc_rng.Splitmix.int r 3 in
    let w = Array.make_matrix n n None in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && Bprc_rng.Splitmix.int r 3 > 0 then
          w.(i).(j) <- Some (Bprc_rng.Splitmix.int r (k + 4) - 2)
      done
    done;
    let g = Distance_graph.create_scratch ~k ~n in
    let wts = Distance_graph.weights g in
    Array.iteri
      (fun i ->
        Array.iteri (fun j ->
            Option.iter (fun x -> Bytes.set_int8 wts ((i * n) + j) x)))
      w;
    Distance_graph.invalidate g;
    let gr =
      Distance_graph_ref.of_weights ~k
        ~present:(fun i j -> w.(i).(j) <> None)
        ~weight:(fun i j -> Option.get w.(i).(j))
        ~n
    in
    let ctx = Printf.sprintf "arbitrary case %d (n=%d k=%d)" case n k in
    graphs_agree ~ctx g gr;
    max_path_queries_agree ~ctx g gr r;
    if Distance_graph.no_positive_cycle g
       <> Distance_graph_ref.no_positive_cycle gr
    then Alcotest.failf "%s: no_positive_cycle diverges" ctx;
    if Distance_graph.weights_in_range g
       <> Distance_graph_ref.weights_in_range gr
    then Alcotest.failf "%s: weights_in_range diverges" ctx;
    if Distance_graph.total_order_consistent g
       <> Distance_graph_ref.total_order_consistent gr
    then Alcotest.failf "%s: total_order_consistent diverges" ctx
  done

let test_diff_graph_positions () =
  (* Consistent graphs from real token games: the position fast path. *)
  let r = rng 59 in
  for case = 1 to 300 do
    let n = 2 + Bprc_rng.Splitmix.int r 7 in
    let k = 1 + Bprc_rng.Splitmix.int r 3 in
    let pos = Array.init n (fun _ -> Bprc_rng.Splitmix.int r (3 * k * n)) in
    let g = Distance_graph.of_positions ~k pos in
    let gr = Distance_graph_ref.of_positions ~k pos in
    let ctx = Printf.sprintf "positions case %d (n=%d k=%d)" case n k in
    graphs_agree ~ctx g gr;
    max_path_queries_agree ~ctx ~pairs:6 g gr r
  done

let suite =
  suite
  @ [
      Alcotest.test_case "diff: counters lockstep (n=2,4,8)" `Quick
        test_diff_counters_small;
      Alcotest.test_case "diff: counters lockstep (n=32)" `Quick
        test_diff_counters_wide;
      Alcotest.test_case "diff: wrap boundaries x compression" `Quick
        test_diff_counters_wrap_compression;
      Alcotest.test_case "diff: stale mixed-row views" `Quick
        test_diff_counters_stale_views;
      Alcotest.test_case "diff: arbitrary graphs (fallback path)" `Quick
        test_diff_graph_arbitrary;
      Alcotest.test_case "diff: position graphs (fast path)" `Quick
        test_diff_graph_positions;
    ]

(* ------------------------------------------------------------------ *)
(* Differential: the scratch decode under scan-shaped views            *)
(* ------------------------------------------------------------------ *)

(* One scratch counter object + one scratch graph reused across every
   iteration, fed stale-mixed scanned rows exactly like
   [test_diff_counters_stale_views]; every observable of the refilled
   scratch must match the frozen reference.  This is the shape of the
   protocol decision path: set_rows -> to_graph_into -> queries ->
   inc_row_with.

   Without [incremental] every view is built from fresh row arrays, so
   every refill is a full one.  With it the view is one row matrix
   kept across steps, the way a protocol instance's scratch sees
   successive scans: each step replaces a random subset of rows (most
   often one or none, sometimes a content-equal copy, sometimes all of
   them) and keeps the other arrays physically shared, so refills take
   the incremental and unchanged-view paths.  Every tenth step swaps
   in a broken row for one step — out of range, or (K >= 2) decoding
   into the forbidden band — which the reference must refuse too and
   which must raise [set_row]'s or [to_graph_into]'s message, after
   which the next valid refill must again agree with the reference.

   The view holds the strip's byte rows, so that the physically shared
   ones hit [set_row]'s skip; the reference gets int copies.

   The reference prices [inc_row] and [dist] at O(n^4) and O(n^3), so
   up to n = 8 every process's row and every pair's [dist_ge] are
   compared at every step; wider, one random process's row and one
   random source's pairs. *)
let diff_into_walk ?(incremental = false) ~k ~n ~steps ~seed ~sample () =
  let r = rng seed in
  let live = Edge_counters_ref.create ~k ~n in
  let old_rows = ref (Edge_counters_ref.rows live) in
  let scratch = Edge_counters.create ~k ~n in
  let g_scr = Distance_graph.create_scratch ~k ~n in
  let view = Strip_rows.matrix_of_ints (Edge_counters_ref.rows live) in
  let pick p =
    Strip_rows.of_ints
      (if Bprc_rng.Splitmix.bool r then (Edge_counters_ref.rows live).(p)
       else !old_rows.(p))
  in
  let ref_of rows =
    Edge_counters_ref.of_rows ~k (Strip_rows.matrix_to_ints rows)
  in
  let raised f =
    match f () with () -> None | exception Invalid_argument m -> Some m
  in
  let every = n <= 8 in
  for step = 1 to steps do
    let i = Bprc_rng.Splitmix.int r n in
    Edge_counters_ref.apply_inc live i;
    if Bprc_rng.Splitmix.int r 5 = 0 then
      old_rows := Edge_counters_ref.rows live;
    let ctx = Printf.sprintf "into k=%d n=%d step %d" k n step in
    if not incremental then
      for p = 0 to n - 1 do
        view.(p) <- pick p
      done
    else begin
      (match Bprc_rng.Splitmix.int r 8 with
      | 0 -> ()
      | 1 ->
        for p = 0 to n - 1 do
          view.(p) <- pick p
        done
      | 2 ->
        let p = Bprc_rng.Splitmix.int r n in
        view.(p) <- Bytes.copy view.(p)
      | 3 ->
        for p = 0 to n - 1 do
          if Bprc_rng.Splitmix.int r 4 = 0 then view.(p) <- pick p
        done
      | _ ->
        let p = Bprc_rng.Splitmix.int r n in
        view.(p) <- pick p);
      if step mod 10 = 0 && n > 1 then begin
        (* One broken row for one step; [view] itself stays intact. *)
        let p = Bprc_rng.Splitmix.int r n in
        let q = (p + 1) mod n in
        let bad = Bytes.copy view.(p) in
        let undecodable = k >= 2 && Bprc_rng.Splitmix.bool r in
        Bytes.set_uint8 bad q
          (if undecodable then (Bytes.get_uint8 view.(q) p + k + 1) mod (3 * k)
           else 3 * k);
        let broken = Array.copy view in
        broken.(p) <- bad;
        (match Edge_counters_ref.to_graph (ref_of broken) with
        | _ -> Alcotest.failf "%s: reference accepts broken row %d" ctx p
        | exception Invalid_argument _ -> ());
        let want =
          if undecodable then "Edge_counters.to_graph_into: undecodable state"
          else "Edge_counters.set_row: counter out of range"
        in
        let got =
          raised (fun () ->
              Edge_counters.set_rows scratch broken;
              Edge_counters.to_graph_into scratch g_scr)
        in
        if got <> Some want then
          Alcotest.failf "%s: broken row %d raised %s, want %s" ctx p
            (Option.value got ~default:"nothing")
            want
      end
    end;
    let mixed = Array.copy view in
    Edge_counters.set_rows scratch mixed;
    let refc = ref_of mixed in
    counters_agree ~ctx scratch refc;
    if Edge_counters.valid scratch then begin
      Edge_counters.to_graph_into scratch g_scr;
      let gr = Edge_counters_ref.to_graph refc in
      graphs_agree ~ctx g_scr gr;
      leaders_agree ~ctx g_scr gr;
      if step mod sample = 0 then
        max_path_queries_agree ~ctx ~pairs:6 g_scr gr r;
      let sources = if every then List.init n Fun.id else [ i ] in
      List.iter
        (fun a ->
          for b = 0 to n - 1 do
            if a <> b then dist_ge_agrees ~ctx g_scr gr a b
          done)
        sources;
      List.iter
        (fun p ->
          if
            Strip_rows.to_ints
              (Edge_counters.inc_row_with scratch ~graph:g_scr p)
            <> Edge_counters_ref.inc_row refc p
          then Alcotest.failf "%s: inc_row_with %d diverges" ctx p)
        sources
    end
    else begin
      match Edge_counters.to_graph_into scratch g_scr with
      | () -> Alcotest.failf "%s: to_graph_into accepted invalid state" ctx
      | exception Invalid_argument m ->
        if m <> "Edge_counters.to_graph_into: undecodable state" then
          Alcotest.failf "%s: to_graph_into raised %s" ctx m
    end
  done;
  let st = Edge_counters.refill_stats scratch in
  if st.Edge_counters.full_refills = 0 then
    Alcotest.failf "k=%d n=%d: no full refill" k n;
  if incremental && (st.incremental_refills = 0 || st.reuses = 0) then
    Alcotest.failf "k=%d n=%d: incremental %d, reuses %d" k n
      st.incremental_refills st.reuses;
  if (not incremental) && st.incremental_refills + st.reuses > 0 then
    Alcotest.failf "k=%d n=%d: fresh-row views refilled incrementally" k n

let test_diff_into () =
  List.iter
    (fun incremental ->
      diff_into_walk ~incremental ~k:2 ~n:2 ~steps:400 ~seed:21 ~sample:1 ();
      diff_into_walk ~incremental ~k:1 ~n:4 ~steps:400 ~seed:22 ~sample:1 ();
      diff_into_walk ~incremental ~k:3 ~n:4 ~steps:400 ~seed:23 ~sample:2 ();
      diff_into_walk ~incremental ~k:2 ~n:8 ~steps:250 ~seed:24 ~sample:10 ();
      diff_into_walk ~incremental ~k:2 ~n:32 ~steps:30 ~seed:25 ~sample:15 ())
    [ false; true ]

(* Steady-state allocation ceiling for the scratch decode: refill one
   scratch graph alternately from two fixed counter states (two, so
   every refill actually changes the edges) and force the position
   reconstruction plus the protocol's queries each time.  After
   warm-up — the graph's rank/order/pos scratch arrays are lazily
   allocated on first use — the loop must be allocation-free. *)
let test_reconstruct_into_no_alloc () =
  let k = 2 and n = 8 in
  let a = Edge_counters.create ~k ~n in
  let b = Edge_counters.create ~k ~n in
  (* Advance every token in [b] a few times; everyone moving together
     keeps the state valid but distinct from the all-zero [a]. *)
  for _ = 1 to 3 do
    for i = 0 to n - 1 do
      Edge_counters.apply_inc b i
    done
  done;
  let g = Distance_graph.create_scratch ~k ~n in
  let refill c =
    Edge_counters.to_graph_into c g;
    ignore (Distance_graph.reconstruct_into g : bool);
    for j = 1 to n - 1 do
      ignore (Distance_graph.dist_ge g 0 j k : bool);
      ignore (Distance_graph.is_leader g j : bool)
    done
  in
  refill a;
  refill b;
  Gc.full_major ();
  let rounds = 2000 in
  let m0 = Gc.minor_words () in
  for i = 1 to rounds do
    refill (if i land 1 = 0 then a else b)
  done;
  let dw = Gc.minor_words () -. m0 in
  Alcotest.(check (float 0.))
    "scratch decode minor words over 2000 full refills" 0. dw

(* The protocol's steady state: successive views of one instance share
   every row array but the one just republished.  Alternating between
   two such views makes every refill an incremental one-dirty-row
   decode; with its reconstruction and the protocol's queries it must
   allocate nothing at all. *)
let test_incremental_refill_no_alloc () =
  let k = 2 and n = 32 in
  let c = Edge_counters.create ~k ~n in
  for i = 0 to n - 1 do
    Edge_counters.apply_inc c i
  done;
  let va = Edge_counters.rows c in
  Edge_counters.apply_inc c 5;
  let vb = Array.copy va in
  vb.(5) <- (Edge_counters.rows c).(5);
  let scratch = Edge_counters.create ~k ~n in
  let g = Distance_graph.create_scratch ~k ~n in
  let refill v =
    Edge_counters.set_rows scratch v;
    Edge_counters.to_graph_into scratch g;
    ignore (Distance_graph.reconstruct_into g : bool);
    for j = 0 to n - 1 do
      ignore (Distance_graph.dist_ge g 5 j k : bool);
      ignore (Distance_graph.is_leader g j : bool)
    done
  in
  refill va;
  refill vb;
  Gc.full_major ();
  let rounds = 2000 in
  let before = Edge_counters.refill_stats scratch in
  let m0 = Gc.minor_words () in
  for i = 1 to rounds do
    refill (if i land 1 = 1 then va else vb)
  done;
  let dw = Gc.minor_words () -. m0 in
  let after = Edge_counters.refill_stats scratch in
  Alcotest.(check int) "every refill incremental" rounds
    (after.incremental_refills - before.Edge_counters.incremental_refills);
  Alcotest.(check int) "one row each" rounds
    (after.rows_redecoded - before.rows_redecoded);
  Alcotest.(check int) "no full refill" before.full_refills after.full_refills;
  Alcotest.(check (float 0.)) "minor words over 2000 one-row refills" 0. dw

let suite =
  suite
  @ [
      Alcotest.test_case "into: scratch decode vs oracle (n=2,4,8,32)" `Quick
        test_diff_into;
      Alcotest.test_case "into: reconstruct_into allocation ceiling" `Quick
        test_reconstruct_into_no_alloc;
      Alcotest.test_case "into: incremental refill allocates nothing" `Quick
        test_incremental_refill_no_alloc;
    ]

(* ------------------------------------------------------------------ *)
(* The edge-counter game, exhaustively                                 *)
(* ------------------------------------------------------------------ *)

(* A breadth-first search over the edge-counter game alone: no coin,
   no snapshot, no consensus.  A state is the n x n counter matrix and,
   in the split game, each process's pending row.

   - Atomic game: a move of process [i] sets row [i] to [inc_row_with]
     of the current matrix, scan and write in one step.
   - Split game: a scan of [i] sets its pending row to that same row; a
     write copies the pending row into row [i] and clears it.  This is
     how the §5 loop publishes an increment: the scan and the write are
     two steps, and other processes may move in between.

   Every reached matrix must be valid and decode to a graph with no
   positive cycle, a consistent total order and weights in range; with
   [~exact], the graph must also reconstruct
   ([Distance_graph.reconstruct_into]), the check whose failure sends
   the protocol's queries to the relaxation fallback.  The result is
   the number of states reached, and the moves to the first bad matrix
   in breadth-first order (so a shortest one) with that matrix. *)

type game_move = Inc of int | Scan of int | Write of int

let game_move_name = function
  | Inc i -> Printf.sprintf "inc %d" i
  | Scan i -> Printf.sprintf "scan %d" i
  | Write i -> Printf.sprintf "write %d" i

(* A state is one flat array: the matrix row by row, then (split game)
   the pending rows, -1 throughout for none. *)
module Game_states = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )
  let hash = Hashtbl.hash_param 64 64
end)

(* Is the matrix in [ec] sound?  On [true], [g] holds its decode. *)
let sound_decode ~exact ec g =
  Edge_counters.valid ec
  && begin
       Edge_counters.to_graph_into ec g;
       Distance_graph.no_positive_cycle g
       && Distance_graph.total_order_consistent g
       && Distance_graph.weights_in_range g
       && ((not exact) || Distance_graph.reconstruct_into g)
     end

let explore_game ~exact ~split ~k ~n =
  let nn = n * n in
  let rows st = Array.init n (fun i -> Array.sub st (i * n) n) in
  let start = Array.make (if split then 2 * nn else nn) 0 in
  if split then Array.fill start nn nn (-1);
  let parent = Game_states.create 4096 in
  Game_states.replace parent start None;
  let queue = Queue.create () in
  Queue.add start queue;
  let ec = Edge_counters.create ~k ~n in
  let graph = Distance_graph.create_scratch ~k ~n in
  let rec path st acc =
    match Game_states.find parent st with
    | None -> acc
    | Some (prev, mv) -> path prev (mv :: acc)
  in
  let visit prev mv st =
    if not (Game_states.mem parent st) then begin
      Game_states.replace parent st (Some (prev, mv));
      Queue.add st queue
    end
  in
  let rec loop () =
    match Queue.take_opt queue with
    | None -> None
    | Some st ->
      let m = rows (Array.sub st 0 nn) in
      Edge_counters.set_rows ec (Strip_rows.matrix_of_ints m);
      if not (sound_decode ~exact ec graph) then Some (path st [], m)
      else begin
        for i = 0 to n - 1 do
          let row =
            Strip_rows.to_ints (Edge_counters.inc_row_with ec ~graph i)
          in
          if not split then begin
            let st' = Array.copy st in
            Array.blit row 0 st' (i * n) n;
            visit st (Inc i) st'
          end
          else begin
            let scanned = Array.copy st in
            Array.blit row 0 scanned (nn + (i * n)) n;
            visit st (Scan i) scanned;
            if st.(nn + (i * n)) >= 0 then begin
              let written = Array.copy st in
              Array.blit st (nn + (i * n)) written (i * n) n;
              Array.fill written (nn + (i * n)) n (-1);
              visit st (Write i) written
            end
          end
        done;
        loop ()
      end
  in
  let bad = loop () in
  (Game_states.length parent, bad)

(* Each row pins two columns: [~exact:true], then [~exact:false]. *)
let test_edge_game () =
  let expect ~split ~n ~k want =
    let verdict ~exact =
      match explore_game ~exact ~split ~k ~n with
      | states, None -> Printf.sprintf "clean, %d states" states
      | _, Some (moves, _) ->
        Printf.sprintf "fails at depth %d" (List.length moves)
    in
    Alcotest.(check (pair string string))
      (Printf.sprintf "%s game, n=%d, K=%d"
         (if split then "split" else "atomic")
         n k)
      want
      (verdict ~exact:true, verdict ~exact:false)
  in
  List.iter
    (fun (n, k, want) -> expect ~split:false ~n ~k (want, want))
    [
      (2, 1, "clean, 9 states");
      (2, 2, "clean, 30 states");
      (2, 3, "clean, 63 states");
      (3, 1, "clean, 351 states");
      (3, 2, "clean, 7992 states");
      (3, 3, "clean, 53217 states");
    ];
  (* THE FAILING ROWS PIN ROADMAP ITEM 2'S DEFECT, as known-defects.t
     does: with scan and write as separate steps, a process writes a
     row computed against a stale matrix.  The fix flips them.  The
     exact decode check sees the corruption sooner at K >= 2. *)
  List.iter
    (fun (n, k, wants) -> expect ~split:true ~n ~k wants)
    [
      (2, 1, ("clean, 60 states", "clean, 60 states"));
      (2, 2, ("clean, 216 states", "clean, 216 states"));
      (2, 3, ("clean, 468 states", "clean, 468 states"));
      (3, 1, ("fails at depth 8", "fails at depth 8"));
      (3, 2, ("fails at depth 10", "fails at depth 14"));
      (3, 3, ("fails at depth 12", "fails at depth 20"));
    ]

(* Pinned without [~exact]: the bad matrix then fails the checks on the
   counters and graph themselves, not only the reconstruction. *)
let test_edge_game_witness () =
  match explore_game ~exact:false ~split:true ~k:2 ~n:3 with
  | _, None -> Alcotest.fail "split game n=3, K=2 is clean"
  | _, Some (moves, matrix) ->
    Alcotest.(check (list string))
      "shortest witness"
      [
        "scan 0"; "write 0"; "scan 0"; "write 0"; "scan 1"; "write 1";
        "scan 0"; "scan 1"; "write 1"; "scan 2"; "write 2"; "scan 2";
        "write 0"; "write 2";
      ]
      (List.map game_move_name moves);
    (* Process 0 scans while it leads both others by K and so leaves
       their edges alone; it writes after they have caught up: 0 leads
       1 by one, yet both are level with 2. *)
    Alcotest.(check (array (array int)))
      "bad matrix"
      [| [| 0; 3; 2 |]; [| 2; 0; 2 |]; [| 2; 2; 0 |] |]
      matrix

let suite =
  suite
  @ [
      Alcotest.test_case "game: edge counters, atomic and split" `Quick
        test_edge_game;
      Alcotest.test_case "game: split n=3 K=2 witness" `Quick
        test_edge_game_witness;
    ]

(* --- Differential: the advance row in one pass ------------------------ *)

(* Each process's advance row, against its own fresh decode: the row
   must equal the reference's [inc_row], which asks one
   [edge]/[on_max_path]/[weight] query per pair, and the decode must
   count a failed reconstruction exactly when that query loop would
   reconstruct at all — at an edge into [i] — on a graph with no
   positions: an eager reconstruction shows up as a count of 1 vs 0.
   Returns how many of the decodes were corrupt. *)
let check_advance_rows ctx ec =
  let n = Edge_counters.n ec in
  let refc =
    Edge_counters_ref.of_rows ~k:(Edge_counters.k ec)
      (Strip_rows.matrix_to_ints (Edge_counters.rows ec))
  in
  let positional = Distance_graph.reconstruct_into (graph_of ec) in
  let corrupt = ref 0 in
  for i = 0 to n - 1 do
    let g = graph_of ec in
    let got = Strip_rows.to_ints (Edge_counters.inc_row_with ec ~graph:g i) in
    Alcotest.(check (array int))
      (Printf.sprintf "%s: row %d" ctx i)
      (Edge_counters_ref.inc_row refc i)
      got;
    let into_i =
      List.exists
        (fun j -> j <> i && Distance_graph.edge g j i)
        (List.init n Fun.id)
    in
    Alcotest.(check int)
      (Printf.sprintf "%s: inconsistent, row %d" ctx i)
      (if into_i && not positional then 1 else 0)
      (Distance_graph.inconsistent g);
    if Distance_graph.inconsistent g > 0 then incr corrupt
  done;
  !corrupt

let test_advance_row_matches_queries () =
  let r = rng 39 in
  let int = Bprc_rng.Splitmix.int r in
  (* Consistent graphs: random walks of the atomic game. *)
  for walk = 1 to 200 do
    let n = 2 + int 6 and k = 1 + int 3 in
    let ec = Edge_counters.create ~k ~n in
    for _ = 1 to int 40 do
      Edge_counters.apply_inc ec (int n)
    done;
    let ctx = Printf.sprintf "atomic walk %d (n=%d, K=%d)" walk n k in
    Alcotest.(check int) (ctx ^ ": consistent") 0 (check_advance_rows ctx ec)
  done;
  (* Corrupt graphs: random walks of the split game (a scan computes a
     pending row, a later write publishes it), each checked at every
     decodable matrix it reaches until the first undecodable one. *)
  let corrupt = ref 0 in
  for walk = 1 to 300 do
    let n = 3 + int 2 and k = 1 + int 3 in
    let rows = Array.init n (fun _ -> Array.make n 0) in
    let pending = Array.make n None in
    let rec go step =
      let ec = counters_of_rows ~k rows in
      if step < 60 && Edge_counters.valid ec then begin
        let ctx = Printf.sprintf "split walk %d step %d" walk step in
        corrupt := !corrupt + check_advance_rows ctx ec;
        let i = int n in
        (match pending.(i) with
        | Some row when Bprc_rng.Splitmix.bool r ->
          rows.(i) <- row;
          pending.(i) <- None
        | _ ->
          pending.(i) <-
            Some
              (Strip_rows.to_ints
                 (Edge_counters.inc_row_with ec ~graph:(graph_of ec) i)));
        go (step + 1)
      end
    in
    go 0
  done;
  if !corrupt = 0 then Alcotest.fail "no split walk reached a corrupt decode"

let suite =
  suite
  @ [
      Alcotest.test_case "diff: advance row = per-pair queries" `Quick
        test_advance_row_matches_queries;
    ]
