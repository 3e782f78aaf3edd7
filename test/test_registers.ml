open Bprc_runtime
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

(* A safe bit is weaker than a regular one: a read overlapping a write
   that leaves the bit unchanged may still return the other value.  The
   writer writes [true; true; false] and the reader reads twice; some
   schedule of the exhaustive walk must record a history that
   [Specs.regular] rejects. *)
let test_weak_safe_bit_not_regular () =
  let open Bprc_faults in
  let plan = [ Fault_plan.Weaken { index = -1; semantics = Fault_plan.Safe } ] in
  let stats =
    Exhaust.explore ~n:2 ~max_steps:400 (fun rt ->
        let (module R : Runtime_intf.S) = Inject.weaken_runtime rt ~plan in
        let bit = R.make_reg ~name:"raw-safe" false in
        let hist = Hist.create () in
        let record pid f =
          let s = Hist.stamp hist in
          let op = f () in
          Hist.record hist ~pid ~start_time:s ~finish_time:(Hist.stamp hist) op
        in
        let body = function
          | 0 ->
            List.iter
              (fun b ->
                record 0 (fun () ->
                    R.write bit b;
                    Specs.Write (Bool.to_int b)))
              [ true; true; false ]
          | _ ->
            for _ = 1 to 2 do
              record 1 (fun () -> Specs.Read (Bool.to_int (R.read bit)))
            done
        in
        let check () =
          if Specs.regular (Hist.events hist) then Ok ()
          else Error "regularity violated"
        in
        (body, check))
  in
  Alcotest.(check bool) "safe bit is not regular" true (stats.violation <> None)

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
    Alcotest.test_case "weak: safe bit not regular" `Quick
      test_weak_safe_bit_not_regular;
  ]
