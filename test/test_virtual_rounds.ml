open Bprc_runtime
open Bprc_core

(* A scannable memory [S] observed from outside, for the §6.1 checker:
   [write] hands [S] the value paired with its writer's write count,
   and [scan_into] scans [S], copies the values out and logs (scanner,
   per-writer counts, view).  It takes no simulator step and creates no
   register, so the protocol runs the schedule it runs over [S] alone
   ("recorder is transparent" pins that).  The counts stamp every
   published cell, which is what serializes the logged views (P3).  The
   log keeps the published values, not copies: the protocol never
   mutates a published segment (the bounded strip's decode relies on
   it). *)
module Recorded (R : Runtime_intf.S) (S : Bprc_snapshot.Snapshot_intf.S) =
struct
  type 'a t = {
    mem : ('a * int) S.t;
    counts : int array;  (** writes so far, per writer *)
    bufs : ('a * int) array array;  (** per-pid scan buffers *)
    mutable log : (int * int array * 'a array) list;  (** newest first *)
  }

  let create ?name ~init () =
    let cell = (init, 0) in
    {
      mem = S.create ?name ~init:cell ();
      counts = Array.make R.n 0;
      bufs = Array.init R.n (fun _ -> Array.make R.n cell);
      log = [];
    }

  let write t v =
    let me = R.pid () in
    t.counts.(me) <- t.counts.(me) + 1;
    S.write t.mem (v, t.counts.(me))

  let record t cells =
    let view = Array.map fst cells in
    t.log <- (R.pid (), Array.map snd cells, view) :: t.log;
    view

  let scan t = Array.copy (record t (S.scan t.mem))

  let scan_into t out =
    let cells = t.bufs.(R.pid ()) in
    S.scan_into t.mem cells;
    Array.blit (record t cells) 0 out 0 (Array.length out)

  let scan_retries t = S.scan_retries t.mem
  let space ~value_bits t = S.space ~value_bits t.mem

  (** (scanner, per-writer counts, view) of every scan, in completion
      order. *)
  let log t = List.rev t.log
end

(* What a run shows its scheduler and its caller. *)
type outcome = {
  completed : bool;
  clock : int;
  decisions : bool option array;
  steps : int array;  (** per process *)
  scans : int;
  registers : int;
}

let run_to_end (type c) sim (module C : Consensus_intf.S with type t = c)
    (t : c) inputs =
  let handles =
    Array.map (fun input -> Sim.spawn sim (fun () -> C.run t ~input)) inputs
  in
  let completed = Sim.run sim = Sim.Completed in
  {
    completed;
    clock = Sim.clock sim;
    decisions = Array.map Sim.result handles;
    steps = Array.init (Array.length inputs) (Sim.steps_of sim);
    scans = (C.stats t).scans;
    registers = Sim.registers_created sim;
  }

(* Run the full protocol over the recorded handshake and turn the log
   into the §6.1 checker's observations. *)
let run_recorded ?coin_mode ?(max_steps = 3_000_000) ~n ~seed ~adversary
    ~inputs () =
  let sim = Sim.create ~seed ~max_steps ~n ~adversary () in
  let module R = (val Sim.runtime sim) in
  let module Rec = Recorded (R) (Bprc_snapshot.Handshake.Make (R)) in
  let module C = Ads89.Over_strip (Ads89.Bounded) (R) (Rec) in
  let t = C.create ?coin_mode ~oracle_seed:seed () in
  let outcome = run_to_end sim (module C) t inputs in
  let obs =
    List.map
      (fun (spid, writes, view) ->
        {
          Virtual_rounds.spid;
          writes;
          rows =
            Array.map (fun seg -> Ads89.Bounded.edges seg.Ads89.round) view;
        })
      (Rec.log (C.memory t))
  in
  (outcome, obs)

let inputs ~n ~seed =
  let r = Bprc_rng.Splitmix.create ~seed:(seed * 31) in
  Array.init n (fun _ -> Bprc_rng.Splitmix.bool r)

let check_seeds ~n ~seeds ~adversary name =
  for seed = 1 to seeds do
    let outcome, obs =
      run_recorded ~n ~seed ~adversary:(adversary ()) ~inputs:(inputs ~n ~seed)
        ()
    in
    if not outcome.completed then
      Alcotest.failf "%s: seed %d timed out" name seed;
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
  (* The write-count vectors of all recorded scans must form a chain —
     P3 lifted to the protocol's own scans.  [check] already fails on
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
  let _outcome, obs =
    run_recorded ~coin_mode ~max_steps:100_000 ~n ~seed ~adversary
      ~inputs:(inputs ~n ~seed) ()
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

(* The recorder takes no step and creates no register, and over atomic
   registers the handshake's retry never turns on its value comparison
   (two writes by j between i's collects raise arrow (i, j) after i
   cleared it, and one flips j's toggle), so the stamped cells leave
   every schedule as it is: the paper's configuration and the recorded
   one run the same steps to the same decisions. *)
let test_recorder_transparent () =
  List.iter
    (fun (name, adversary) ->
      let n = 4 and seed = 1 in
      let inputs = inputs ~n ~seed in
      let plain =
        let sim =
          Sim.create ~seed ~max_steps:3_000_000 ~n ~adversary:(adversary ()) ()
        in
        let module C = Ads89.Make ((val Sim.runtime sim)) in
        run_to_end sim (module C) (C.create ~oracle_seed:seed ()) inputs
      in
      let recorded, obs =
        run_recorded ~n ~seed ~adversary:(adversary ()) ~inputs ()
      in
      let check what = Alcotest.(check int) (name ^ ": " ^ what) in
      Alcotest.(check bool) (name ^ ": completed") true plain.completed;
      check "clock" plain.clock recorded.clock;
      Alcotest.(check (array (option bool)))
        (name ^ ": decisions") plain.decisions recorded.decisions;
      Alcotest.(check (array int))
        (name ^ ": steps") plain.steps recorded.steps;
      check "scans" plain.scans recorded.scans;
      check "scans logged" plain.scans (List.length obs);
      check "registers" plain.registers recorded.registers)
    [
      ("random", Adversary.random);
      ("round-robin", Adversary.round_robin);
      ("bursty:13", fun () -> Adversary.bursty ~burst:13 ());
    ]

let test_checker_flags_incomparable () =
  let ob spid writes =
    {
      Virtual_rounds.spid;
      writes;
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
  let ob spid writes rows = { Virtual_rounds.spid; writes; rows } in
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
    Alcotest.test_case "recorder is transparent" `Quick
      test_recorder_transparent;
    Alcotest.test_case "flags incomparable views" `Quick
      test_checker_flags_incomparable;
    Alcotest.test_case "flags a decreasing round" `Quick
      test_checker_flags_decrease;
    Alcotest.test_case "empty history" `Quick test_checker_empty;
  ]
