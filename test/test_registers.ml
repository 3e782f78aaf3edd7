open Bprc_runtime
open Bprc_registers
module Hist = Bprc_check.Hist
module Specs = Bprc_check.Specs
module Reg_lin = Bprc_check.Lin.Make (Specs.Register)

(* ------------------------------------------------------------------ *)
(* The register spec's checkers on hand-built histories               *)
(* ------------------------------------------------------------------ *)

let op pid s f op = { Hist.pid; start_time = s; finish_time = f; op }

let atomic h =
  match Reg_lin.check h with
  | Reg_lin.Linearizable _ -> true
  | Reg_lin.Not_linearizable -> false

let test_lin_sequential_legal () =
  let h = [ op 0 0 1 (Specs.Write 5); op 1 2 3 (Specs.Read 5) ] in
  Alcotest.(check bool) "legal" true (atomic h)

let test_lin_sequential_illegal () =
  let h = [ op 0 0 1 (Specs.Write 5); op 1 2 3 (Specs.Read 7) ] in
  Alcotest.(check bool) "illegal" false (atomic h)

let test_lin_initial_value () =
  Alcotest.(check bool) "read init" true (atomic [ op 0 0 1 (Specs.Read 0) ]);
  Alcotest.(check bool) "read wrong init" false
    (atomic [ op 0 0 1 (Specs.Read 3) ])

let test_lin_overlap_choice () =
  (* A read overlapping a write may return old or new. *)
  let base = op 0 0 10 (Specs.Write 5) in
  Alcotest.(check bool) "new ok" true
    (atomic [ base; op 1 2 3 (Specs.Read 5) ]);
  Alcotest.(check bool) "old ok" true
    (atomic [ base; op 1 2 3 (Specs.Read 0) ])

let test_lin_new_old_inversion () =
  (* Two sequential reads during one long write: new then old is the
     classic atomicity violation. *)
  let h =
    [
      op 0 0 100 (Specs.Write 5);
      op 1 10 20 (Specs.Read 5);
      op 1 30 40 (Specs.Read 0);
    ]
  in
  Alcotest.(check bool) "inversion rejected" false (atomic h);
  (* Old then new is fine. *)
  let h' =
    [
      op 0 0 100 (Specs.Write 5);
      op 1 10 20 (Specs.Read 0);
      op 1 30 40 (Specs.Read 5);
    ]
  in
  Alcotest.(check bool) "old-then-new accepted" true
    (atomic h')

let test_lin_stale_read_rejected () =
  (* w(1) then w(2) complete; a later read of 1 is illegal. *)
  let h =
    [
      op 0 0 1 (Specs.Write 1);
      op 0 2 3 (Specs.Write 2);
      op 1 4 5 (Specs.Read 1);
    ]
  in
  Alcotest.(check bool) "stale rejected" false (atomic h)

let test_lin_concurrent_writes_order_free () =
  (* Two overlapping writes; a later read may see either. *)
  let h v =
    [
      op 0 0 10 (Specs.Write 1);
      op 1 0 10 (Specs.Write 2);
      op 2 11 12 (Specs.Read v);
    ]
  in
  Alcotest.(check bool) "sees 1" true (atomic (h 1));
  Alcotest.(check bool) "sees 2" true (atomic (h 2));
  Alcotest.(check bool) "sees ghost" false (atomic (h 3))

let test_lin_witness_order () =
  let h =
    [
      op 0 0 1 (Specs.Write 1);
      op 1 2 3 (Specs.Read 1);
      op 0 4 5 (Specs.Write 2);
    ]
  in
  match Reg_lin.check h with
  | Reg_lin.Not_linearizable -> Alcotest.fail "expected witness"
  | Reg_lin.Linearizable order ->
    Alcotest.(check int) "all ops in order" 3 (List.length order);
    (* The witness must itself replay legally. *)
    let value = ref 0 in
    List.iter
      (fun (e : Specs.reg_op Hist.event) ->
        match e.op with
        | Specs.Write v -> value := v
        | Specs.Read v -> Alcotest.(check int) "witness read legal" !value v)
      order

(* The cap is exact: a history of [Lin.max_events] operations is
   checked, one more is refused. *)
let test_lin_too_many_ops () =
  let h k = List.init k (fun i -> op 0 (2 * i) ((2 * i) + 1) (Specs.Write i)) in
  let cap = Bprc_check.Lin.max_events in
  Alcotest.(check bool) "at the cap" true (atomic (h cap));
  match atomic (h (cap + 1)) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument beyond the cap"

let test_regular_checker () =
  (* Read overlapping w(5) may return 0 or 5 but not 7. *)
  let mk v = [ op 0 0 10 (Specs.Write 5); op 1 2 3 (Specs.Read v) ] in
  Alcotest.(check bool) "old" true (Specs.regular (mk 0));
  Alcotest.(check bool) "new" true (Specs.regular (mk 5));
  Alcotest.(check bool) "ghost" false (Specs.regular (mk 7));
  (* Regularity tolerates the new/old inversion that atomicity rejects. *)
  let inv =
    [
      op 0 0 100 (Specs.Write 5);
      op 1 10 20 (Specs.Read 5);
      op 1 30 40 (Specs.Read 0);
    ]
  in
  Alcotest.(check bool) "inversion tolerated" true
    (Specs.regular inv)

let test_regular_overlapping_writes_rejected () =
  let h = [ op 0 0 10 (Specs.Write 1); op 1 5 15 (Specs.Write 2) ] in
  Alcotest.check_raises "overlapping writes"
    (Invalid_argument "Specs.regular: overlapping writes") (fun () ->
      ignore (Specs.regular h))

(* ------------------------------------------------------------------ *)
(* Helpers: run a scenario in the simulator, recording a history       *)
(* ------------------------------------------------------------------ *)

let timed (module R : Runtime_intf.S) hist pid kind f =
  let s = Hist.stamp hist in
  let r = f () in
  Hist.record hist ~pid ~start_time:s ~finish_time:(Hist.stamp hist) (kind r);
  r

(* ------------------------------------------------------------------ *)
(* Weak registers (Inject's safe and regular models)                   *)
(* ------------------------------------------------------------------ *)

let test_weak_sequential_reads_exact () =
  (* With a single process there is no overlap: reads, the first of
     the initial value included, must be exact for both semantics. *)
  let open Bprc_faults in
  List.iter
    (fun semantics ->
      let sim =
        Sim.create ~seed:1 ~n:1 ~adversary:(Adversary.round_robin ()) ()
      in
      let plan = [ Fault_plan.Weaken { index = -1; semantics } ] in
      let module R = (val Inject.weaken_runtime (Sim.runtime sim) ~plan) in
      let h =
        Sim.spawn sim (fun () ->
            let reg = R.make_reg ~name:"w" 3 in
            let a = R.read reg in
            R.write reg 5;
            let b = R.read reg in
            R.write reg 7;
            let c = R.read reg in
            (a, b, c))
      in
      ignore (Sim.run sim);
      Alcotest.(check (option (triple int int int)))
        "sequential exact" (Some (3, 5, 7)) (Sim.result h))
    [ Fault_plan.Safe; Fault_plan.Regular ]

(* ------------------------------------------------------------------ *)
(* Regular-from-safe and k-ary-from-bits constructions                 *)
(* ------------------------------------------------------------------ *)

(* The constructions run over a runtime whose every register is safe:
   an overlapped read returns any value the register ever held. *)
let safe_runtime rt =
  let open Bprc_faults in
  Inject.weaken_runtime rt
    ~plan:[ Fault_plan.Weaken { index = -1; semantics = Fault_plan.Safe } ]

(* Writer writes [true; true; false], so the second write is one the
   construction skips; reader reads twice.  Exhaustively, every history
   of the construction is regular, and the raw safe bit, written the
   same way, is not. *)
let reg_of_safe_explore ~raw =
  Exhaust.explore ~n:2 ~max_steps:400 (fun rt ->
      let (module R : Runtime_intf.S) = safe_runtime rt in
      let module B = Regular_of_safe.Make (R) in
      let read, write =
        if raw then
          let bit = R.make_reg ~name:"raw-safe" false in
          ((fun () -> R.read bit), R.write bit)
        else
          let reg = B.make ~init:false () in
          ((fun () -> B.read reg), B.write reg)
      in
      let hist = Hist.create () in
      let record pid kind f = ignore (timed (module R) hist pid kind f) in
      let body = function
        | 0 ->
          List.iter
            (fun b ->
              record 0 (fun _ -> Specs.Write (Bool.to_int b)) (fun () ->
                  write b))
            [ true; true; false ]
        | _ ->
          for _ = 1 to 2 do
            record 1 (fun v -> Specs.Read (Bool.to_int v)) read
          done
      in
      let check () =
        if not (Specs.regular (Hist.events hist)) then
          Error "regularity violated"
        else Ok ()
      in
      (body, check))

let test_regular_of_safe_exhaustive () =
  let stats = reg_of_safe_explore ~raw:false in
  Exhaust.no_violation stats;
  Alcotest.(check bool) "exhausted" true stats.exhausted;
  let raw = reg_of_safe_explore ~raw:true in
  Alcotest.(check bool) "raw safe bit is not regular" true
    (raw.violation <> None)

let test_kary_regular_random () =
  for seed = 1 to 40 do
    let sim = Sim.create ~seed ~n:2 ~adversary:(Adversary.random ()) () in
    let (module R) = safe_runtime (Sim.runtime sim) in
    let module K = Unary_kary.Make (R) in
    let reg = K.make ~k:5 ~init:2 () in
    let hist = Hist.create () in
    ignore
      (Sim.spawn sim (fun () ->
           List.iter
             (fun v ->
               timed (module R) hist 0 (fun _ -> Specs.Write v) (fun () ->
                   K.write reg v))
             [ 4; 0; 3; 1 ]));
    ignore
      (Sim.spawn sim (fun () ->
           for _ = 1 to 6 do
             ignore
               (timed (module R) hist 1 (fun v -> Specs.Read v) (fun () ->
                    K.read reg))
           done));
    ignore (Sim.run sim);
    if not (Specs.regular ~init:2 (Hist.events hist)) then
      Alcotest.failf "kary regularity violation at seed %d" seed
  done

let test_kary_range_checks () =
  let sim = Sim.create ~seed:1 ~n:1 ~adversary:(Adversary.round_robin ()) () in
  let module K = Unary_kary.Make ((val Sim.runtime sim)) in
  Alcotest.check_raises "bad init"
    (Invalid_argument "Unary_kary.make: init out of range") (fun () ->
      ignore (K.make ~k:3 ~init:3 ()))

(* ------------------------------------------------------------------ *)
(* VA-style SWMR atomic construction                                   *)
(* ------------------------------------------------------------------ *)

let va_scenario ~writes ~reads_per_reader seed =
  let n = 3 in
  let sim = Sim.create ~seed ~n ~adversary:(Adversary.random ()) () in
  let (module R) = Sim.runtime sim in
  let module V = Va_swmr.Make ((val Sim.runtime sim)) in
  let reg = V.make ~readers:2 ~init:0 () in
  let hist = Hist.create () in
  ignore
    (Sim.spawn sim (fun () ->
         for v = 1 to writes do
           timed (module R) hist 0 (fun _ -> Specs.Write v) (fun () ->
               V.write reg v)
         done));
  for r = 0 to 1 do
    ignore
      (Sim.spawn sim (fun () ->
           for _ = 1 to reads_per_reader do
             ignore
               (timed (module R) hist (r + 1) (fun v -> Specs.Read v) (fun () ->
                    V.read reg ~me:r))
           done))
  done;
  ignore (Sim.run sim);
  Hist.events hist

let test_va_atomic_random () =
  for seed = 1 to 80 do
    let ops = va_scenario ~writes:4 ~reads_per_reader:4 seed in
    if not (atomic ops) then
      Alcotest.failf "VA atomicity violation at seed %d" seed
  done

let test_va_atomic_exhaustive () =
  (* Writer: 2 writes; two readers: 1 read each.  Full interleaving
     space, every history linearizable. *)
  let stats =
    Exhaust.explore ~n:3 ~max_steps:400 (fun (module R : Runtime_intf.S) ->
        let module V = Va_swmr.Make ((val (module R : Runtime_intf.S))) in
        let reg = V.make ~readers:2 ~init:0 () in
        let hist = Hist.create () in
        let body = function
          | 0 ->
            for v = 1 to 2 do
              timed (module R) hist 0 (fun _ -> Specs.Write v) (fun () ->
                  V.write reg v)
            done
          | p ->
            ignore
              (timed (module R) hist p (fun v -> Specs.Read v) (fun () ->
                   V.read reg ~me:(p - 1)))
        in
        let check () =
          if not (atomic (Hist.events hist)) then
            Error "VA: atomicity violated"
          else Ok ()
        in
        (body, check))
  in
  Exhaust.no_violation stats;
  Alcotest.(check bool) "exhausted" true stats.exhausted

let test_va_seq_grows () =
  let sim = Sim.create ~seed:1 ~n:1 ~adversary:(Adversary.round_robin ()) () in
  let module V = Va_swmr.Make ((val Sim.runtime sim)) in
  let reg = V.make ~readers:1 ~init:0 () in
  ignore
    (Sim.spawn sim (fun () ->
         for v = 1 to 10 do
           V.write reg v
         done));
  ignore (Sim.run sim);
  Alcotest.(check int) "timestamps unbounded" 10 (V.max_seq reg)

(* ------------------------------------------------------------------ *)
(* Bloom two-writer construction                                       *)
(* ------------------------------------------------------------------ *)

(* Scenario: w0 writes 10 then 30; w1 writes 5 then 40; one reader.
   Small enough to exhaust. *)
let bloom_explore strategy =
  let violations = ref 0 in
  let stats =
    (* The Reread_winner reader costs one extra step, pushing the
       interleaving count to 14!/(5!5!4!) = 252252. *)
    Exhaust.explore ~n:3 ~max_steps:400 ~max_runs:400_000
      (fun (module R : Runtime_intf.S) ->
        let module B = Bloom_2w.Make ((val (module R : Runtime_intf.S))) in
        let reg = B.make ~strategy ~init:0 () in
        let hist = Hist.create () in
        let body = function
          | 0 ->
            List.iter
              (fun v ->
                timed (module R) hist 0 (fun _ -> Specs.Write v) (fun () ->
                    B.write reg ~me:0 v))
              [ 10; 30 ]
          | 1 ->
            List.iter
              (fun v ->
                timed (module R) hist 1 (fun _ -> Specs.Write v) (fun () ->
                    B.write reg ~me:1 v))
              [ 5; 40 ]
          | _ ->
            ignore
              (timed (module R) hist 2 (fun v -> Specs.Read v) (fun () ->
                   B.read reg))
        in
        let check () =
          if not (atomic (Hist.events hist)) then
            incr violations;
          Ok ()
        in
        (body, check))
  in
  (stats, !violations)

let test_bloom_single_collect_not_atomic () =
  let stats, violations = bloom_explore Bloom_2w.Single_collect in
  Alcotest.(check bool) "exhausted" true stats.exhausted;
  Alcotest.(check bool)
    (Printf.sprintf "found violations (%d)" violations)
    true (violations > 0)

let test_bloom_reread_atomic_exhaustive () =
  let stats, violations = bloom_explore Bloom_2w.Reread_winner in
  Alcotest.(check bool) "exhausted" true stats.exhausted;
  Alcotest.(check int) "no violations" 0 violations

let test_bloom_reread_atomic_random_soak () =
  (* Bigger scenario under random schedules: 2 writers x 3 writes,
     2 readers x 3 reads. *)
  for seed = 1 to 120 do
    let sim = Sim.create ~seed ~n:4 ~adversary:(Adversary.random ()) () in
    let (module R) = Sim.runtime sim in
    let module B = Bloom_2w.Make ((val Sim.runtime sim)) in
    let reg = B.make ~init:0 () in
    let hist = Hist.create () in
    for w = 0 to 1 do
      ignore
        (Sim.spawn sim (fun () ->
             for k = 1 to 3 do
               let v = (10 * (w + 1)) + k in
               timed (module R) hist w (fun _ -> Specs.Write v) (fun () ->
                   B.write reg ~me:w v)
             done))
    done;
    for r = 2 to 3 do
      ignore
        (Sim.spawn sim (fun () ->
             for _ = 1 to 3 do
               ignore
                 (timed (module R) hist r (fun v -> Specs.Read v) (fun () ->
                      B.read reg))
             done))
    done;
    ignore (Sim.run sim);
    if not (atomic (Hist.events hist)) then
      Alcotest.failf "Bloom/Reread violation at seed %d" seed
  done

let suite =
  [
    Alcotest.test_case "lin: sequential legal" `Quick test_lin_sequential_legal;
    Alcotest.test_case "lin: sequential illegal" `Quick
      test_lin_sequential_illegal;
    Alcotest.test_case "lin: initial value" `Quick test_lin_initial_value;
    Alcotest.test_case "lin: overlap choice" `Quick test_lin_overlap_choice;
    Alcotest.test_case "lin: new/old inversion" `Quick
      test_lin_new_old_inversion;
    Alcotest.test_case "lin: stale read" `Quick test_lin_stale_read_rejected;
    Alcotest.test_case "lin: concurrent writes" `Quick
      test_lin_concurrent_writes_order_free;
    Alcotest.test_case "lin: witness" `Quick test_lin_witness_order;
    Alcotest.test_case "lin: op cap" `Quick test_lin_too_many_ops;
    Alcotest.test_case "regular checker" `Quick test_regular_checker;
    Alcotest.test_case "regular: overlapping writes" `Quick
      test_regular_overlapping_writes_rejected;
    Alcotest.test_case "weak: sequential exact" `Quick
      test_weak_sequential_reads_exact;
    Alcotest.test_case "reg-of-safe: exhaustive regular" `Slow
      test_regular_of_safe_exhaustive;
    Alcotest.test_case "kary: regular random" `Quick test_kary_regular_random;
    Alcotest.test_case "kary: range checks" `Quick test_kary_range_checks;
    Alcotest.test_case "va: atomic random" `Quick test_va_atomic_random;
    Alcotest.test_case "va: atomic exhaustive" `Slow test_va_atomic_exhaustive;
    Alcotest.test_case "va: unbounded timestamps" `Quick test_va_seq_grows;
    Alcotest.test_case "bloom: single collect not atomic" `Slow
      test_bloom_single_collect_not_atomic;
    Alcotest.test_case "bloom: reread atomic exhaustive" `Slow
      test_bloom_reread_atomic_exhaustive;
    Alcotest.test_case "bloom: reread random soak" `Quick
      test_bloom_reread_atomic_random_soak;
  ]
