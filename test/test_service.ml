(* The lib/service decision engine, plus the harness pieces this PR
   added for it: the Stats.Ring percentile buffer, the Pool shutdown
   guards, and Run.consensus_once's arena-reuse path. *)

open Bprc_harness
module Engine = Bprc_service.Engine
module Workload = Bprc_service.Workload

let feq ?(eps = 1e-9) a b = abs_float (a -. b) < eps

(* ------------------------------------------------------------------ *)
(* Stats.Ring                                                          *)
(* ------------------------------------------------------------------ *)

let test_ring_empty () =
  let r = Stats.Ring.create ~capacity:8 in
  Alcotest.(check bool) "p50 of empty is nan" true
    (Float.is_nan (Stats.Ring.p50 r));
  Alcotest.(check int) "stored" 0 (Stats.Ring.stored r);
  Alcotest.(check int) "total" 0 (Stats.Ring.total r);
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Stats.Ring.create: capacity must be >= 1") (fun () ->
      ignore (Stats.Ring.create ~capacity:0))

let test_ring_matches_list () =
  (* Under capacity, the ring's percentiles are exactly the list
     helper's over the same samples. *)
  let r = Stats.Ring.create ~capacity:16 in
  let xs = [ 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 ] in
  List.iter (Stats.Ring.add r) xs;
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f" p)
        true
        (feq (Stats.Ring.percentile r p) (Stats.percentile p xs)))
    [ 0.0; 25.0; 50.0; 99.0; 100.0 ]

let test_ring_wraparound () =
  (* Past capacity the ring keeps the most recent samples only. *)
  let r = Stats.Ring.create ~capacity:4 in
  for i = 1 to 10 do
    Stats.Ring.add r (float_of_int i)
  done;
  Alcotest.(check int) "stored = capacity" 4 (Stats.Ring.stored r);
  Alcotest.(check int) "total counts everything" 10 (Stats.Ring.total r);
  let last4 = [ 7.0; 8.0; 9.0; 10.0 ] in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f over live window" p)
        true
        (feq (Stats.Ring.percentile r p) (Stats.percentile p last4)))
    [ 0.0; 50.0; 100.0 ];
  Stats.Ring.clear r;
  Alcotest.(check bool) "cleared" true (Float.is_nan (Stats.Ring.p50 r))

let test_ring_cache_invalidation () =
  (* A percentile read between adds must not freeze the sort. *)
  let r = Stats.Ring.create ~capacity:8 in
  Stats.Ring.add r 1.0;
  Alcotest.(check bool) "first read" true (feq (Stats.Ring.p50 r) 1.0);
  Stats.Ring.add r 3.0;
  Alcotest.(check bool) "read after add" true (feq (Stats.Ring.p50 r) 2.0)

let test_ring_add_no_alloc () =
  (* The steady-state add path must not allocate per sample: it is
     called once per decided instance on the service hot path.  The
     ring stores into preallocated arrays, so the only allocation the
     loop may show is the caller boxing the float argument across the
     non-inlined call — 2 words per add, and nothing else. *)
  let r = Stats.Ring.create ~capacity:64 in
  let xs = Array.init 64 (fun i -> float_of_int i) in
  Array.iter (Stats.Ring.add r) xs (* warm up *);
  let m0 = Gc.minor_words () in
  for i = 0 to 63 do
    Stats.Ring.add r (Array.unsafe_get xs i)
  done;
  let dw = Gc.minor_words () -. m0 in
  Alcotest.(check bool)
    (Printf.sprintf "minor words for 64 adds (%.0f)" dw)
    true
    (dw <= 2.0 *. 64.0)

(* ------------------------------------------------------------------ *)
(* Pool shutdown guards                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_shutdown_idempotent () =
  let p = Pool.create ~workers:2 () in
  Pool.shutdown p;
  Pool.shutdown p;
  (* reaching here without raising or hanging is the test *)
  Alcotest.(check int) "workers still reported" 2 (Pool.workers p)

let test_pool_map_after_shutdown () =
  let p = Pool.create ~workers:2 () in
  let before = Pool.map p 4 (fun i -> i * i) in
  Alcotest.(check (array int)) "live map works" [| 0; 1; 4; 9 |] before;
  Pool.shutdown p;
  Alcotest.check_raises "map" (Invalid_argument "Pool.map: pool is shut down")
    (fun () -> ignore (Pool.map p 4 (fun i -> i)));
  Alcotest.check_raises "map_list"
    (Invalid_argument "Pool.map_list: pool is shut down") (fun () ->
      ignore (Pool.map_list p (fun i -> i) [ 1; 2 ]))

(* ------------------------------------------------------------------ *)
(* Run.consensus_once arena reuse                                      *)
(* ------------------------------------------------------------------ *)

let run_fresh ~n ~seed =
  Run.consensus_once
    ~algo:(Run.Ads Bprc_core.Ads89.Shared_walk)
    ~pattern:Run.Random_inputs ~n ~seed ()

let test_run_reuse_matches_fresh () =
  (* One arena re-used across seeds must reproduce the fresh-simulator
     runs bit for bit — the whole point of Sim.reset adoption. *)
  let n = 3 in
  let max_steps = 20_000_000 in
  let sim =
    Bprc_runtime.Sim.create ~seed:0 ~max_steps ~n
      ~adversary:(Bprc_runtime.Adversary.round_robin ())
      ()
  in
  for seed = 101 to 108 do
    let fresh = run_fresh ~n ~seed in
    let reused =
      Run.consensus_once ~sim
        ~algo:(Run.Ads Bprc_core.Ads89.Shared_walk)
        ~pattern:Run.Random_inputs ~n ~seed ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d identical" seed)
      true (fresh = reused)
  done

let test_run_reuse_validates_shape () =
  let sim =
    Bprc_runtime.Sim.create ~seed:0 ~max_steps:1000 ~n:3
      ~adversary:(Bprc_runtime.Adversary.round_robin ())
      ()
  in
  Alcotest.check_raises "n mismatch"
    (Invalid_argument "Run.consensus_once: reused sim has n=3, want n=4")
    (fun () ->
      ignore
        (Run.consensus_once ~sim ~max_steps:1000
           ~algo:(Run.Ads Bprc_core.Ads89.Shared_walk)
           ~pattern:Run.Random_inputs ~n:4 ~seed:1 ()));
  Alcotest.check_raises "step bound too small"
    (Invalid_argument "Run.consensus_once: reused sim caps steps at 1000, want 2000")
    (fun () ->
      ignore
        (Run.consensus_once ~sim ~max_steps:2000
           ~algo:(Run.Ads Bprc_core.Ads89.Shared_walk)
           ~pattern:Run.Random_inputs ~n:3 ~seed:1 ()))

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let with_pool workers f =
  let p = Pool.create ~workers () in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) (fun () -> f p)

let specs_mixed count =
  List.init count (fun i ->
      let pattern =
        match i mod 3 with
        | 0 -> Run.Random_inputs
        | 1 -> Run.Split
        | _ -> Run.Unanimous (i mod 2 = 0)
      in
      Workload.spec ~pattern ~n:3 ())

(* Submit everything closed-loop (consuming on overload) and return the
   full decided stream in delivery order. *)
let run_stream ?(cap = 1024) ~workers specs =
  with_pool workers (fun pool ->
      let e = Engine.create ~mode:Engine.Deterministic ~seed:42 ~in_flight_cap:cap ~pool () in
      let out = ref [] in
      let consume () =
        match Engine.next_decided e with
        | Some d -> out := d :: !out
        | None -> Alcotest.fail "overloaded with nothing in flight"
      in
      List.iter
        (fun s ->
          let rec offer () =
            match Engine.submit e s with
            | `Accepted _ -> ()
            | `Overloaded ->
              consume ();
              offer ()
          in
          offer ())
        specs;
      List.iter (fun d -> out := d :: !out) (Engine.drain e);
      Engine.shutdown e;
      List.rev !out)

let test_engine_worker_invariance () =
  (* The tentpole determinism claim: the decided stream is a pure
     function of (seed, specs), independent of worker count and of the
     submit/consume interleaving (the tiny cap forces interleaving). *)
  let specs = specs_mixed 40 in
  let w1 = run_stream ~workers:1 specs in
  let w2 = run_stream ~workers:2 specs in
  let w4 = run_stream ~workers:4 specs in
  let interleaved = run_stream ~cap:5 ~workers:2 specs in
  Alcotest.(check int) "all decided" 40 (List.length w1);
  Alcotest.(check bool) "1 vs 2 workers" true (w1 = w2);
  Alcotest.(check bool) "1 vs 4 workers" true (w1 = w4);
  Alcotest.(check bool) "interleaving-independent" true (w1 = interleaved);
  List.iter
    (fun (d : Engine.decided) ->
      Alcotest.(check bool) "spec clean" true (d.Engine.spec_check = Ok ());
      Alcotest.(check bool) "no wall-clock fields" true
        (d.Engine.latency_s = 0.0 && d.Engine.shard = -1))
    w1;
  (* Ticket order is delivery order. *)
  List.iteri
    (fun i (d : Engine.decided) ->
      Alcotest.(check int) "ticket order" i d.Engine.ticket)
    w1

let test_engine_backpressure () =
  with_pool 1 (fun pool ->
      let e = Engine.create ~in_flight_cap:2 ~pool () in
      let spec = Workload.spec ~n:3 () in
      let verdicts = Engine.submit_batch e [ spec; spec; spec; spec; spec ] in
      let accepted =
        List.length
          (List.filter (function `Accepted _ -> true | _ -> false) verdicts)
      in
      Alcotest.(check int) "window admits exactly cap" 2 accepted;
      (* Prefix-greedy: the refusals are the suffix. *)
      (match verdicts with
      | [ `Accepted 0; `Accepted 1; `Overloaded; `Overloaded; `Overloaded ] ->
        ()
      | _ -> Alcotest.fail "expected accepted prefix, refused suffix");
      let st = Engine.stats e in
      Alcotest.(check int) "refusals counted" 3 st.Engine.overloaded;
      Alcotest.(check int) "high-water = cap" 2 st.Engine.max_in_flight;
      (* Consuming reopens the window. *)
      Alcotest.(check bool) "decided arrives" true
        (Engine.next_decided e <> None);
      (match Engine.submit e spec with
      | `Accepted _ -> ()
      | `Overloaded -> Alcotest.fail "window did not reopen");
      Engine.shutdown e)

let test_engine_arena_reuse () =
  with_pool 1 (fun pool ->
      let e = Engine.create ~seed:7 ~pool () in
      let spec = Workload.spec ~n:3 () in
      List.iter
        (fun v ->
          match v with
          | `Accepted _ -> ()
          | `Overloaded -> Alcotest.fail "unexpected backpressure")
        (Engine.submit_batch e (Workload.uniform ~count:30 spec));
      let out = Engine.drain e in
      (* 30 instances, one worker, one shape: exactly one arena. *)
      Alcotest.(check int) "single arena" 1 (Engine.arenas_live e);
      (* Reuse must be invisible: every decided record matches a fresh
         single-run with the engine's documented per-ticket seeding. *)
      List.iter
        (fun (d : Engine.decided) ->
          let seed =
            Bprc_rng.Splitmix.bits30
              (Bprc_rng.Splitmix.fork (Bprc_rng.Splitmix.create ~seed:7)
                 d.Engine.ticket)
          in
          let fresh = run_fresh ~n:3 ~seed in
          Alcotest.(check bool)
            (Printf.sprintf "ticket %d decisions" d.Engine.ticket)
            true
            (fresh.Run.decisions = d.Engine.decisions
            && fresh.Run.steps = d.Engine.steps
            && fresh.Run.max_round = d.Engine.rounds))
        out;
      Engine.shutdown e;
      Alcotest.(check int) "arenas released" 0 (Engine.arenas_live e))

let test_engine_shutdown_drains () =
  with_pool 2 (fun pool ->
      let e = Engine.create ~pool () in
      let spec = Workload.spec ~n:3 () in
      ignore (Engine.submit_batch e (Workload.uniform ~count:10 spec));
      (* Consume a few, leave the rest in flight, then shut down. *)
      for _ = 1 to 3 do
        ignore (Engine.next_decided e)
      done;
      Engine.shutdown e;
      Engine.shutdown e (* idempotent *);
      let st = Engine.stats e in
      Alcotest.(check int) "every admitted instance decided" 10
        st.Engine.decided;
      (* Decided records survive shutdown and stay in ticket order. *)
      let rest = Engine.drain e in
      Alcotest.(check (list int)) "remaining tickets" [ 3; 4; 5; 6; 7; 8; 9 ]
        (List.map (fun (d : Engine.decided) -> d.Engine.ticket) rest);
      Alcotest.(check int) "nothing left" 0 (Engine.in_flight e);
      Alcotest.check_raises "submit refused"
        (Invalid_argument "Engine.submit: engine is shut down") (fun () ->
          ignore (Engine.submit e spec)))

let test_engine_stats_accounting () =
  with_pool 1 (fun pool ->
      let e = Engine.create ~mode:Engine.Throughput ~pool () in
      let spec = Workload.spec ~n:3 () in
      ignore (Engine.submit_batch e (Workload.uniform ~count:8 spec));
      let out = Engine.drain e in
      let st = Engine.stats e in
      Alcotest.(check int) "submitted" 8 st.Engine.submitted;
      Alcotest.(check int) "decided" 8 st.Engine.decided;
      Alcotest.(check int) "delivered" 8 st.Engine.delivered;
      Alcotest.(check int) "violations" 0 st.Engine.violations;
      Alcotest.(check int) "incomplete" 0 st.Engine.incomplete;
      Alcotest.(check int) "corrupt" 0 st.Engine.corrupt;
      Alcotest.(check bool) "throughput measured" true
        (st.Engine.decisions_per_sec > 0.0);
      Alcotest.(check bool) "latency percentiles measured" true
        (st.Engine.lat_p50_s >= 0.0 && st.Engine.lat_p99_s >= st.Engine.lat_p50_s);
      Alcotest.(check int) "histogram covers every decision" 8
        (List.fold_left (fun a (_, c) -> a + c) 0 st.Engine.rounds_hist);
      List.iter
        (fun (d : Engine.decided) ->
          Alcotest.(check bool) "latency stamped" true (d.Engine.latency_s >= 0.0);
          Alcotest.(check bool) "shard stamped" true (d.Engine.shard >= 0))
        out;
      Engine.shutdown e)

(* A decided result keeps its [n] decisions in [n + 1] words plus the
   two shared [Some true]/[Some false] boxes, whatever [n] is: one box
   per process, as [Sim.result] hands them out, would read [3n + 1]. *)
let check_decisions_words what (decisions : bool option array) =
  let n = Array.length decisions in
  let words = Obj.reachable_words (Obj.repr decisions) in
  if Array.exists Option.is_none decisions then
    Alcotest.failf "%s: undecided process" what;
  if words > n + 5 then
    Alcotest.failf "%s: decisions retain %d words > n + 5 = %d" what words
      (n + 5)

let test_decisions_retained_words () =
  let n = 8 in
  let r =
    Run.consensus_once ~sched:Run.Round_robin_sched
      ~algo:(Run.Ads Bprc_core.Ads89.Shared_walk)
      ~pattern:Run.Random_inputs ~n ~seed:1 ()
  in
  check_decisions_words "consensus_once" r.Run.decisions;
  with_pool 1 (fun pool ->
      let e = Engine.create ~seed:3 ~pool () in
      let spec = Workload.spec ~sched:Run.Round_robin_sched ~n () in
      ignore (Engine.submit_batch e (Workload.uniform ~count:32 spec));
      let out = Engine.drain e in
      Alcotest.(check int) "decided" 32 (List.length out);
      List.iter
        (fun (d : Engine.decided) ->
          check_decisions_words
            (Printf.sprintf "engine ticket %d" d.Engine.ticket)
            d.Engine.decisions)
        out;
      Engine.shutdown e)

(* A unanimous result holds one of its arena's two read-only vectors:
   every unanimous-true result of one arena the same physical array,
   every unanimous-false result the other. *)
let test_unanimous_vectors_shared () =
  let n = 4 in
  let sim =
    Bprc_runtime.Sim.create ~seed:0 ~max_steps:20_000_000 ~n
      ~adversary:(Bprc_runtime.Adversary.round_robin ())
      ()
  in
  let run v seed =
    let r =
      Run.consensus_once ~sim
        ~algo:(Run.Ads Bprc_core.Ads89.Shared_walk)
        ~pattern:(Run.Unanimous v) ~n ~seed ()
    in
    Alcotest.(check (array (option bool)))
      (Printf.sprintf "unanimous %b, seed %d" v seed)
      (Array.make n (Some v)) r.Run.decisions;
    r.Run.decisions
  in
  let t1 = run true 1 and f1 = run false 2 in
  let t2 = run true 3 and f2 = run false 4 in
  Alcotest.(check bool) "true results share one array" true (t1 == t2);
  Alcotest.(check bool) "false results share one array" true (f1 == f2);
  Alcotest.(check bool) "the two vectors differ" true (t1 != f1)

(* Any other outcome owns its array: a run cut short by a tiny step
   bound, and a disagreeing one.  K=1 is the cheap source of
   disagreement (ROADMAP item 13): seed 3 at n=3 decides split within
   a few hundred steps. *)
let test_other_outcomes_own_arrays () =
  let sim =
    Bprc_runtime.Sim.create ~seed:0 ~max_steps:20_000_000 ~n:3
      ~adversary:(Bprc_runtime.Adversary.round_robin ())
      ()
  in
  let run ?params ?max_steps ~pattern seed =
    Run.consensus_once ~sim ?params ?max_steps
      ~algo:(Run.Ads Bprc_core.Ads89.Shared_walk)
      ~pattern ~n:3 ~seed ()
  in
  let yes = (run ~pattern:(Run.Unanimous true) 1).Run.decisions in
  let no = (run ~pattern:(Run.Unanimous false) 1).Run.decisions in
  let cut = run ~max_steps:20 ~pattern:(Run.Unanimous true) 1 in
  Alcotest.(check bool) "cut run incomplete" false cut.Run.completed;
  Alcotest.(check (array (option bool)))
    "cut run: nobody decided" [| None; None; None |] cut.Run.decisions;
  let split =
    run ~params:{ Bprc_core.Params.default with k = 1 }
      ~pattern:Run.Random_inputs 3
  in
  Alcotest.(check bool) "split run completed" true split.Run.completed;
  Alcotest.(check bool) "split run violates agreement" true
    (Result.is_error split.Run.spec);
  Alcotest.(check bool) "split run holds both values" true
    (Array.mem (Some true) split.Run.decisions
    && Array.mem (Some false) split.Run.decisions);
  List.iter
    (fun (what, d) ->
      Alcotest.(check bool) (what ^ " owns its array") true
        (d != yes && d != no))
    [ ("cut run", cut.Run.decisions); ("split run", split.Run.decisions) ];
  Alcotest.(check (array (option bool)))
    "shared vectors untouched" [| Some true; Some true; Some true |] yes;
  Alcotest.(check (array (option bool)))
    "shared vectors untouched" [| Some false; Some false; Some false |] no

(* A whole engine batch on one arena keeps at most its two shared
   vectors, [n + 1] words each, plus the two shared boxes. *)
let test_batch_decisions_words () =
  let n = 8 in
  with_pool 1 (fun pool ->
      let e = Engine.create ~seed:3 ~pool () in
      let spec = Workload.spec ~sched:Run.Round_robin_sched ~n () in
      ignore (Engine.submit_batch e (Workload.uniform ~count:32 spec));
      let out = Engine.drain e in
      Engine.shutdown e;
      let all =
        Array.of_list (List.map (fun (d : Engine.decided) -> d.Engine.decisions) out)
      in
      Alcotest.(check int) "decided" 32 (Array.length all);
      let words =
        Obj.reachable_words (Obj.repr all) - (Array.length all + 1)
      in
      let bound = (2 * (n + 1)) + 4 in
      if words > bound then
        Alcotest.failf "32 results retain %d words of decisions > %d" words
          bound)

let suite =
  [
    Alcotest.test_case "ring: empty" `Quick test_ring_empty;
    Alcotest.test_case "ring: matches list percentile" `Quick
      test_ring_matches_list;
    Alcotest.test_case "ring: wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "ring: cache invalidation" `Quick
      test_ring_cache_invalidation;
    Alcotest.test_case "ring: add is alloc-free" `Quick test_ring_add_no_alloc;
    Alcotest.test_case "pool: shutdown idempotent" `Quick
      test_pool_shutdown_idempotent;
    Alcotest.test_case "pool: map after shutdown raises" `Quick
      test_pool_map_after_shutdown;
    Alcotest.test_case "run: arena reuse matches fresh" `Quick
      test_run_reuse_matches_fresh;
    Alcotest.test_case "run: arena reuse validates shape" `Quick
      test_run_reuse_validates_shape;
    Alcotest.test_case "engine: worker-count invariance" `Quick
      test_engine_worker_invariance;
    Alcotest.test_case "engine: backpressure" `Quick test_engine_backpressure;
    Alcotest.test_case "engine: arena reuse" `Quick test_engine_arena_reuse;
    Alcotest.test_case "engine: shutdown drains" `Quick
      test_engine_shutdown_drains;
    Alcotest.test_case "engine: stats accounting" `Quick
      test_engine_stats_accounting;
    Alcotest.test_case "run: decided result retains n + 5 words" `Quick
      test_decisions_retained_words;
    Alcotest.test_case "run: unanimous results share the arena's vectors"
      `Quick test_unanimous_vectors_shared;
    Alcotest.test_case "run: other outcomes own their arrays" `Quick
      test_other_outcomes_own_arrays;
    Alcotest.test_case "engine: a batch retains 2(n + 1) + 4 decision words"
      `Quick test_batch_decisions_words;
  ]
