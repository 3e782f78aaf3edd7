open Bprc_runtime
module Space = Bprc_space.Space

(* ------------------------------------------------------------------ *)
(* Space report combinators                                            *)
(* ------------------------------------------------------------------ *)

let test_entry_validation () =
  Alcotest.check_raises "negative registers"
    (Invalid_argument "Space.entry: negative registers") (fun () ->
      ignore (Space.entry ~group:"x" ~registers:(-1) ~bits_per_register:1));
  Alcotest.check_raises "negative bits"
    (Invalid_argument "Space.entry: negative bits_per_register") (fun () ->
      ignore (Space.entry ~group:"x" ~registers:1 ~bits_per_register:(-1)))

let test_totals () =
  let t =
    [
      Space.entry ~group:"values" ~registers:4 ~bits_per_register:47;
      Space.entry ~group:"arrows" ~registers:16 ~bits_per_register:1;
    ]
  in
  Alcotest.(check int) "registers" 20 (Space.registers t);
  Alcotest.(check int) "total bits" 204 (Space.total_bits t);
  Alcotest.(check int) "max width" 47 (Space.max_register_bits t);
  Alcotest.(check int) "empty total" 0 (Space.total_bits []);
  Alcotest.(check int) "empty max" 0 (Space.max_register_bits []);
  let scaled = Space.scale ~registers:3 t in
  Alcotest.(check int) "scaled registers" 60 (Space.registers scaled);
  Alcotest.(check int) "scaled bits" 612 (Space.total_bits scaled);
  match Space.prefix "snap" t with
  | { Space.group = "snap.values"; _ } :: { Space.group = "snap.arrows"; _ }
    :: [] -> ()
  | _ -> Alcotest.fail "prefix did not rename groups in order"

let test_json_shape () =
  let t = [ Space.entry ~group:"g" ~registers:2 ~bits_per_register:5 ] in
  Alcotest.(check string)
    "stable field order"
    "{\"groups\":[{\"group\":\"g\",\"registers\":2,\"bits_per_register\":5,\"bits\":10}],\"registers\":2,\"max_register_bits\":5,\"total_bits\":10}"
    (Bprc_util.Json.to_string (Space.to_json t))

(* ------------------------------------------------------------------ *)
(* Exact counts for known shapes (hand-computed from §2/§5)            *)
(* ------------------------------------------------------------------ *)

(* Default params, n=2: k=2, δ=2, m=4·(δn)²=64.  One segment's payload:
   pref 2 + pointer ⌈lg 3⌉=2 + 3 coins × ⌈lg 131⌉=8 + 2 edges × ⌈lg 6⌉=3
   = 34 bits; handshake adds the toggle (35/register) and its n(n-1) = 2
   arrows: 2·35 + 2·1 = 72 shared bits in 4 registers. *)
let expect_ads ~n ~registers ~max_bits ~total_bits () =
  let fp =
    Bprc_harness.Run.footprint
      (Bprc_harness.Run.Ads Bprc_core.Ads89.Shared_walk)
      ~n
  in
  let s = fp.Bprc_harness.Run.space in
  Alcotest.(check int) "registers" registers (Space.registers s);
  Alcotest.(check int) "max register bits" max_bits (Space.max_register_bits s);
  Alcotest.(check int) "total shared bits" total_bits (Space.total_bits s);
  Alcotest.(check int)
    "arena agrees" registers fp.Bprc_harness.Run.registers_created

let test_exact_ads_n2 () =
  expect_ads ~n:2 ~registers:4 ~max_bits:35 ~total_bits:72 ()

(* n=4: m=4·(2·4)²=256; payload 2 + 2 + 3×⌈lg 515⌉=30 + 4×3 = 46 bits;
   4·47 + 12·1 = 200 bits in 16 registers. *)
let test_exact_ads_n4 () =
  expect_ads ~n:4 ~registers:16 ~max_bits:47 ~total_bits:200 ()

let test_exact_snapshots () =
  let n = 4 in
  let sim =
    Sim.create ~seed:0 ~max_steps:1 ~n ~adversary:(Adversary.random ()) ()
  in
  let module R = (val Sim.runtime sim) in
  let module H = Bprc_snapshot.Handshake.Make (R) in
  let h = H.create ~init:0 () in
  Alcotest.(check int) "handshake regs" (n + (n * (n - 1)))
    (Space.registers (H.space ~value_bits:10 h));
  Alcotest.(check int) "handshake bits"
    ((n * 11) + (n * (n - 1)))
    (Space.total_bits (H.space ~value_bits:10 h));
  let module E = Bprc_snapshot.Embedded.Make (R) in
  let e = E.create ~init:0 () in
  Alcotest.(check int) "embedded regs" n (Space.registers (E.space ~value_bits:10 e));
  Alcotest.(check int) "embedded bits"
    (n * (10 + 63 + (n * 10)))
    (Space.total_bits (E.space ~value_bits:10 e));
  let module U = Bprc_snapshot.Unbounded.Make (R) in
  let u = U.create ~init:0 () in
  Alcotest.(check int) "unbounded regs" n (Space.registers (U.space ~value_bits:10 u));
  Alcotest.(check int) "unbounded bits"
    (n * (10 + 63))
    (Space.total_bits (U.space ~value_bits:10 u))

(* ------------------------------------------------------------------ *)
(* Constancy: the report never changes across a run, and the arena     *)
(* never sees a register the report does not account for               *)
(* ------------------------------------------------------------------ *)

(* The register ids [sim]'s recorded trace reads or writes are exactly
   [0 .. Sim.registers_created sim - 1]. *)
let check_every_register_accessed ~what sim =
  let seen = Array.make (Sim.registers_created sim) false in
  (match Sim.trace sim with
  | None -> Alcotest.fail "trace recording was requested"
  | Some t ->
    Trace.iter
      (fun e ->
        let id = e.Trace.reg_id in
        if id >= Array.length seen then
          Alcotest.failf "%s: access to register %d, not created" what id;
        if id >= 0 then seen.(id) <- true)
      t);
  Array.iteri
    (fun id hit ->
      if not hit then
        Alcotest.failf "%s: register %d created but never accessed" what id)
    seen

let test_space_constant_over_run () =
  let n = 3 in
  let sim =
    Sim.create ~seed:5 ~n ~record_trace:true ~adversary:(Adversary.random ())
      ()
  in
  let module C = Bprc_core.Ads89.Make ((val Sim.runtime sim)) in
  let t = C.create () in
  let space0 = C.space t in
  let regs0 = Sim.registers_created sim in
  Alcotest.(check int) "report honest at creation" (Space.registers space0)
    regs0;
  let handles =
    Array.init n (fun i -> Sim.spawn sim (fun () -> C.run t ~input:(i mod 2 = 0)))
  in
  (match Sim.run sim with
  | Sim.Completed -> ()
  | Sim.Hit_step_limit -> Alcotest.fail "run hit step limit");
  Array.iter (fun h -> ignore (Sim.result h)) handles;
  Alcotest.(check int) "no hidden shared-register allocation mid-run" regs0
    (Sim.registers_created sim);
  Alcotest.(check bool) "report constant across the run" true
    (C.space t = space0);
  check_every_register_accessed ~what:"ads89 decision" sim

(* Every snapshot, at every width from a lone process up, accesses
   each register its arena created once every process has updated and
   then scanned: no register is dead weight in a space report. *)
let test_every_register_accessed () =
  let open Bprc_snapshot in
  let snaps :
      (string * ((module Runtime_intf.S) -> (module Snapshot_intf.S))) list =
    [
      ("handshake", fun (module R) -> (module Handshake.Make (R)));
      ("embedded", fun (module R) -> (module Embedded.Make (R)));
      ("unbounded", fun (module R) -> (module Unbounded.Make (R)));
    ]
  in
  List.iter
    (fun (what, make) ->
      for n = 1 to 5 do
        let sim =
          Sim.create ~seed:n ~n ~record_trace:true
            ~adversary:(Adversary.random ()) ()
        in
        let (module S : Snapshot_intf.S) = make (Sim.runtime sim) in
        let mem = S.create ~init:0 () in
        for p = 0 to n - 1 do
          ignore
            (Sim.spawn sim (fun () ->
                 S.write mem (p + 1);
                 ignore (S.scan mem)))
        done;
        Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
        check_every_register_accessed ~what:(Printf.sprintf "%s n=%d" what n)
          sim
      done)
    snaps

let test_run_surfaces_space () =
  let r =
    Bprc_harness.Run.consensus_once
      ~algo:(Bprc_harness.Run.Ads Bprc_core.Ads89.Shared_walk)
      ~pattern:Bprc_harness.Run.Split ~n:4 ~seed:2 ()
  in
  Alcotest.(check bool) "completed" true r.Bprc_harness.Run.completed;
  Alcotest.(check int) "space through Run" 200
    (Space.total_bits r.Bprc_harness.Run.space);
  Alcotest.(check int) "measured = analytic" 16
    r.Bprc_harness.Run.registers_used;
  let r =
    Bprc_harness.Run.consensus_once
      ~algo:(Bprc_harness.Run.Ads_esnap Bprc_core.Ads89.Oracle_shared)
      ~pattern:Bprc_harness.Run.Split ~n:4 ~seed:2 ()
  in
  Alcotest.(check bool) "esnap completed" true r.Bprc_harness.Run.completed;
  (* 4 cells × (46 payload + 63 seq + 4·46 view) *)
  Alcotest.(check int) "esnap space through Run" (4 * (46 + 63 + 184))
    (Space.total_bits r.Bprc_harness.Run.space);
  Alcotest.(check int) "esnap measured = analytic" 4
    r.Bprc_harness.Run.registers_used

(* Over the unbounded strip the payload grows with the rounds a run
   enters, and the handshake still adds exactly its toggle: a finished
   run's width minus its payload is 1 control bit, as on a fresh
   instance ([Run.footprint]). *)
let test_ah_control_bit () =
  let n = 3 in
  let sim = Sim.create ~seed:5 ~n ~adversary:(Adversary.random ()) () in
  let module C = Bprc_core.Ah88.Make_batched ((val Sim.batched sim)) in
  let t = C.create () in
  let fresh = C.state_bits t in
  let _ =
    Array.init n (fun i -> Sim.spawn sim (fun () -> C.run t ~input:(i = 0)))
  in
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  Alcotest.(check bool) "payload grew" true (C.state_bits t > fresh);
  Alcotest.(check int) "finished: width - payload" 1
    (Space.max_register_bits (C.space t) - C.state_bits t);
  let fp = Bprc_harness.Run.footprint Bprc_harness.Run.Ah ~n in
  Alcotest.(check int) "fresh: width - payload" 1
    (Space.max_register_bits fp.Bprc_harness.Run.space
    - fp.Bprc_harness.Run.state_bits)

(* ------------------------------------------------------------------ *)
(* Large-n smoke: n=64 decides, deterministically                      *)
(* ------------------------------------------------------------------ *)

let trace_digest sim =
  match Sim.trace sim with
  | None -> Alcotest.fail "trace recording was requested"
  | Some t -> Trace.digest t

let large_n = 64
let large_max_steps = 2_000_000

let large_run ?sim seed =
  let r =
    Bprc_harness.Run.consensus_once ?sim ~max_steps:large_max_steps
      ~algo:(Bprc_harness.Run.Ads_esnap Bprc_core.Ads89.Oracle_shared)
      ~pattern:Bprc_harness.Run.Random_inputs ~n:large_n ~seed ()
  in
  if not r.Bprc_harness.Run.completed then
    Alcotest.failf "n=%d did not decide within %d steps" large_n
      large_max_steps;
  (match r.Bprc_harness.Run.spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "spec violation at n=%d: %s" large_n e);
  r

let test_large_n_decides () =
  let r = large_run 3 in
  Array.iteri
    (fun i d ->
      if d = None then Alcotest.failf "process %d undecided" i)
    r.Bprc_harness.Run.decisions;
  Alcotest.(check int) "all registers accounted"
    (Space.registers r.Bprc_harness.Run.space)
    r.Bprc_harness.Run.registers_used

let test_large_n_digest_deterministic_across_reset () =
  (* The same arena, reset between runs, must replay the identical
     schedule: the full trace digest is pinned, not just the outcome. *)
  let sim =
    Sim.create ~seed:0 ~max_steps:large_max_steps ~n:large_n
      ~record_trace:true ~adversary:(Adversary.random ()) ()
  in
  let r1 = large_run ~sim 3 in
  let d1 = trace_digest sim in
  let r2 = large_run ~sim 3 in
  let d2 = trace_digest sim in
  Alcotest.(check string) "digest stable across Sim.reset reuse" d1 d2;
  Alcotest.(check bool) "decisions stable" true
    (r1.Bprc_harness.Run.decisions = r2.Bprc_harness.Run.decisions);
  Alcotest.(check int) "steps stable" r1.Bprc_harness.Run.steps
    r2.Bprc_harness.Run.steps

let test_large_n_digest_deterministic_across_workers () =
  let digests ~workers =
    let pool = Bprc_harness.Pool.create ~workers () in
    let out =
      Bprc_harness.Pool.map pool 2 (fun i ->
          let sim =
            Sim.create ~seed:0 ~max_steps:large_max_steps ~n:large_n
              ~record_trace:true ~adversary:(Adversary.random ()) ()
          in
          let r = large_run ~sim (3 + i) in
          (trace_digest sim, r.Bprc_harness.Run.steps))
    in
    Bprc_harness.Pool.shutdown pool;
    out
  in
  Alcotest.(check bool) "1-vs-2 pool workers agree" true
    (digests ~workers:1 = digests ~workers:2)

let suite =
  [
    Alcotest.test_case "space: entry validation" `Quick test_entry_validation;
    Alcotest.test_case "space: totals/scale/prefix" `Quick test_totals;
    Alcotest.test_case "space: json shape" `Quick test_json_shape;
    Alcotest.test_case "space: exact ADS89 n=2" `Quick test_exact_ads_n2;
    Alcotest.test_case "space: exact ADS89 n=4" `Quick test_exact_ads_n4;
    Alcotest.test_case "space: exact snapshot layouts" `Quick
      test_exact_snapshots;
    Alcotest.test_case "space: constant over a run" `Quick
      test_space_constant_over_run;
    Alcotest.test_case "space: every created register is accessed" `Quick
      test_every_register_accessed;
    Alcotest.test_case "space: surfaced through Run" `Quick
      test_run_surfaces_space;
    Alcotest.test_case "space: AH width = payload + toggle" `Quick
      test_ah_control_bit;
    Alcotest.test_case "large-n: n=64 decides in bound" `Quick
      test_large_n_decides;
    Alcotest.test_case "large-n: digest stable across reset reuse" `Quick
      test_large_n_digest_deterministic_across_reset;
    Alcotest.test_case "large-n: digest stable across pool workers" `Quick
      test_large_n_digest_deterministic_across_workers;
  ]
