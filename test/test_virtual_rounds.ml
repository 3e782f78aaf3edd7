open Bprc_runtime
open Bprc_core

(* Run the full protocol with scan recording and hand the observations
   to the §6.1 checker. *)
let run_recorded ?coin_mode ?(max_steps = 3_000_000) ~n ~seed ~adversary
    ~inputs () =
  let sim = Sim.create ~seed ~max_steps ~n ~adversary () in
  let module C = Ads89.Make ((val Sim.runtime sim)) in
  let t = C.create ?coin_mode ~oracle_seed:seed ~record_scans:true () in
  let _handles =
    Array.init n (fun i -> Sim.spawn sim (fun () -> C.run t ~input:inputs.(i)))
  in
  let completed = Sim.run sim = Sim.Completed in
  (completed, C.recorded_scans t)

let check_seeds ~n ~seeds ~adversary name =
  for seed = 1 to seeds do
    let inputs =
      let r = Bprc_rng.Splitmix.create ~seed:(seed * 31) in
      Array.init n (fun _ -> Bprc_rng.Splitmix.bool r)
    in
    let completed, obs =
      run_recorded ~n ~seed ~adversary:(adversary ()) ~inputs ()
    in
    if not completed then Alcotest.failf "%s: seed %d timed out" name seed;
    match Virtual_rounds.check ~k:2 ~n obs with
    | Ok report ->
      if report.Virtual_rounds.scans_checked = 0 then
        Alcotest.failf "%s: seed %d recorded nothing" name seed;
      if report.Virtual_rounds.max_virtual_round < 1 then
        Alcotest.failf "%s: seed %d never advanced" name seed
    | Error e -> Alcotest.failf "%s: seed %d: %s" name seed e
  done

let test_random () = check_seeds ~n:3 ~seeds:25 ~adversary:Adversary.random "random"

let test_round_robin () =
  check_seeds ~n:4 ~seeds:10 ~adversary:Adversary.round_robin "round-robin"

let test_bursty () =
  check_seeds ~n:4 ~seeds:10
    ~adversary:(fun () -> Adversary.bursty ~burst:13 ())
    "bursty"

let test_serialization_is_total () =
  (* The ghost vectors of all recorded scans must form a chain — P3
     lifted to the protocol's own scans.  [check] already fails on
     incomparability; this test asserts it over many seeds with wide n. *)
  check_seeds ~n:6 ~seeds:6 ~adversary:Adversary.random "wide"

(* Every process decodes into its instance's one strip scratch, so a
   row must be computed from the publishing process's own scan, never
   from a decode another process left in the scratch.  Between two
   scans of process [p] lies exactly one write of [p], so the row [p]
   shows in its later scan is either the row it showed before or
   the frozen oracle's [inc_row] of its earlier scan.  [Local_flips]
   yields at its flip between decode and write; this pins its re-decode
   after the flip (without it, n=5 under bursty:40 fails).  Some n=5
   bursty runs take millions of steps to decide, so runs are cut at
   100,000 steps and the rows are checked over the scans made so
   far. *)
let rows_follow_own_scans ~n ~coin_mode ~seed ~adversary name =
  let inputs =
    let r = Bprc_rng.Splitmix.create ~seed:(seed * 31) in
    Array.init n (fun _ -> Bprc_rng.Splitmix.bool r)
  in
  let _completed, obs =
    run_recorded ~coin_mode ~max_steps:100_000 ~n ~seed ~adversary ~inputs ()
  in
  let k = Params.default.Params.k in
  let last = Array.make n None in
  List.iter
    (fun (o : Virtual_rounds.obs) ->
      let p = o.spid in
      (match last.(p) with
      | None -> ()
      | Some (prev : Virtual_rounds.obs) ->
        let row = o.rows.(p) in
        if
          (not (Bytes.equal row prev.rows.(p)))
          && Strip_rows.to_ints row
             <> Edge_counters_ref.inc_row
                  (Edge_counters_ref.of_rows ~k
                     (Strip_rows.matrix_to_ints prev.rows))
                  p
        then
          Alcotest.failf
            "%s: seed %d: pid %d published a row not decoded from its scan"
            name seed p);
      last.(p) <- Some o)
    obs

let test_rows_follow_own_scans () =
  List.iter
    (fun (mode, coin_mode, seeds) ->
      List.iter
        (fun n ->
          List.iter
            (fun (sched, adversary) ->
              let name = Printf.sprintf "%s n=%d %s" mode n sched in
              for seed = 1 to seeds do
                rows_follow_own_scans ~n ~coin_mode ~seed
                  ~adversary:(adversary ()) name
              done)
            [
              ("random", Adversary.random);
              ("bursty:5", fun () -> Adversary.bursty ~burst:5 ());
              ("bursty:40", fun () -> Adversary.bursty ~burst:40 ());
            ])
        [ 3; 4; 5 ])
    [
      ("walk", Ads89.Shared_walk, 20);
      ("local", Ads89.Local_flips, 300);
      ("oracle", Ads89.Oracle_shared, 20);
    ]

let test_checker_flags_incomparable () =
  let ob spid ghosts =
    {
      Virtual_rounds.spid;
      ghosts;
      rows = Strip_rows.matrix_of_ints [| [| 0; 0 |]; [| 0; 0 |] |];
    }
  in
  match
    Virtual_rounds.check ~k:2 ~n:2 [ ob 0 [| 1; 0 |]; ob 1 [| 0; 1 |] ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incomparable views not flagged"

(* Process 0 leads by one; then, while 0 stays put, processes 1 and 2
   show rows that put 0 two ahead of both.  The anchor is the unmoved
   leader 0 at round 1, so both fall from round 0 to -1; the verdict
   names the last of them. *)
let test_checker_flags_decrease () =
  let ob spid ghosts rows = { Virtual_rounds.spid; ghosts; rows } in
  let z = Strip_rows.of_ints [| 0; 0; 0 |]
  and lead = Strip_rows.of_ints [| 0; 1; 1 |]
  and behind = Strip_rows.of_ints [| 5; 0; 0 |] in
  match
    Virtual_rounds.check ~k:2 ~n:3
      [
        ob 0 [| 0; 0; 0 |] [| z; z; z |];
        ob 0 [| 1; 0; 0 |] [| lead; z; z |];
        ob 1 [| 1; 1; 1 |] [| lead; behind; behind |];
      ]
  with
  | Ok _ -> Alcotest.fail "decreasing round not flagged"
  | Error e ->
    Alcotest.(check string)
      "verdict" "virtual round of 2 decreased (0 -> -1) at scan 3" e

let test_checker_empty () =
  match Virtual_rounds.check ~k:2 ~n:3 [] with
  | Ok r ->
    Alcotest.(check int) "no scans" 0 r.Virtual_rounds.scans_checked;
    Alcotest.(check int) "round 0" 0 r.Virtual_rounds.max_virtual_round
  | Error e -> Alcotest.fail e

let suite =
  [
    Alcotest.test_case "monotone under random" `Quick test_random;
    Alcotest.test_case "monotone under round-robin" `Quick test_round_robin;
    Alcotest.test_case "monotone under bursty" `Quick test_bursty;
    Alcotest.test_case "serialization total (n=6)" `Quick
      test_serialization_is_total;
    Alcotest.test_case "published rows follow own scans" `Quick
      test_rows_follow_own_scans;
    Alcotest.test_case "flags incomparable views" `Quick
      test_checker_flags_incomparable;
    Alcotest.test_case "flags a decreasing round" `Quick
      test_checker_flags_decrease;
    Alcotest.test_case "empty history" `Quick test_checker_empty;
  ]
