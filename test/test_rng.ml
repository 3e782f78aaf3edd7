open Bprc_rng

let test_determinism () =
  let a = Splitmix.create ~seed:123 in
  let b = Splitmix.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix.next64 a) (Splitmix.next64 b)
  done

let test_seed_sensitivity () =
  let a = Splitmix.create ~seed:1 in
  let b = Splitmix.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" true
    (Splitmix.next64 a <> Splitmix.next64 b)

let test_copy_replays () =
  let a = Splitmix.create ~seed:7 in
  ignore (Splitmix.next64 a);
  let b = Splitmix.copy a in
  let xs = List.init 20 (fun _ -> Splitmix.next64 a) in
  let ys = List.init 20 (fun _ -> Splitmix.next64 b) in
  Alcotest.(check bool) "copy replays" true (xs = ys)

let test_int_range () =
  let rng = Splitmix.create ~seed:5 in
  for _ = 1 to 10_000 do
    let x = Splitmix.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.fail "int out of range"
  done

let test_int_invalid () =
  let rng = Splitmix.create ~seed:5 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Splitmix.int: bound must be positive") (fun () ->
      ignore (Splitmix.int rng 0))

let test_int_covers_all_residues () =
  let rng = Splitmix.create ~seed:11 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Splitmix.int rng 5) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

(* Regression: bounds just above 2^30 take the wide (62-bit) rejection
   path; the acceptance limit there must be the largest multiple of
   [bound] below 2^62 — computed from (2^62 - 1) only because 2^62
   itself doesn't fit in an OCaml int. *)
let test_int_wide_bound () =
  let bound = (1 lsl 30) + 1 in
  let rng = Splitmix.create ~seed:123 in
  let shadow = Splitmix.copy rng in
  let mask = (1 lsl 62) - 1 in
  (* bound does not divide 2^62, so floor((2^62-1)/bound) * bound is the
     correct acceptance limit and this reference replays the stream. *)
  let limit = mask / bound * bound in
  let rec ref_draw () =
    let r = Int64.to_int (Int64.shift_right_logical (Splitmix.next64 shadow) 2) land mask in
    if r < limit then r mod bound else ref_draw ()
  in
  for _ = 1 to 2_000 do
    let x = Splitmix.int rng bound in
    if x < 0 || x >= bound then Alcotest.fail "wide bound out of range";
    Alcotest.(check int) "matches reference rejection sampler" (ref_draw ()) x
  done

(* Power-of-two wide bounds divide 2^62 exactly: every draw must be
   accepted (the buggy limit rejected the top [bound] values, silently
   consuming extra stream and skewing replay). *)
let test_int_wide_pow2_no_rejection () =
  let bound = 1 lsl 31 in
  let rng = Splitmix.create ~seed:77 in
  let shadow = Splitmix.copy rng in
  let mask = (1 lsl 62) - 1 in
  for _ = 1 to 2_000 do
    let x = Splitmix.int rng bound in
    let r =
      Int64.to_int (Int64.shift_right_logical (Splitmix.next64 shadow) 2)
      land mask
    in
    Alcotest.(check int) "one stream step per call" (r mod bound) x
  done

let prop_int_wide_in_bounds =
  QCheck.Test.make ~name:"Splitmix.int wide bounds stay in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 (1 lsl 32)))
    (fun (seed, extra) ->
      let bound = (1 lsl 30) + extra in
      let rng = Splitmix.create ~seed in
      let x = Splitmix.int rng bound in
      x >= 0 && x < bound)

let test_bool_balanced () =
  let rng = Splitmix.create ~seed:99 in
  let heads = ref 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    if Splitmix.bool rng then incr heads
  done;
  let ratio = float_of_int !heads /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "fair within 1%% (got %.4f)" ratio)
    true
    (ratio > 0.49 && ratio < 0.51)

let test_float_range () =
  let rng = Splitmix.create ~seed:3 in
  for _ = 1 to 10_000 do
    let x = Splitmix.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_fork_independent () =
  let rng = Splitmix.create ~seed:42 in
  let a = Splitmix.fork rng 0 in
  let b = Splitmix.fork rng 1 in
  let again = Splitmix.fork rng 0 in
  Alcotest.(check bool) "same index same stream" true
    (Splitmix.next64 a = Splitmix.next64 again);
  let a' = Splitmix.fork rng 0 in
  ignore (Splitmix.next64 a');
  Alcotest.(check bool) "different index differs" true
    (Splitmix.next64 a' <> Splitmix.next64 b)

let test_split_advances_parent () =
  let a = Splitmix.create ~seed:8 in
  let b = Splitmix.create ~seed:8 in
  let child = Splitmix.split a in
  (* Parent advanced exactly once. *)
  ignore (Splitmix.next64 b);
  Alcotest.(check int64) "parent advanced once" (Splitmix.next64 b)
    (Splitmix.next64 a);
  ignore child

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Splitmix.int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Splitmix.create ~seed in
      let x = Splitmix.int rng bound in
      x >= 0 && x < bound)

let prop_fork_deterministic =
  QCheck.Test.make ~name:"fork is deterministic" ~count:200
    QCheck.(pair small_int small_nat)
    (fun (seed, i) ->
      let r1 = Splitmix.create ~seed in
      let r2 = Splitmix.create ~seed in
      Splitmix.next64 (Splitmix.fork r1 i) = Splitmix.next64 (Splitmix.fork r2 i))

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "copy replays" `Quick test_copy_replays;
    Alcotest.test_case "int range" `Quick test_int_range;
    Alcotest.test_case "int invalid bound" `Quick test_int_invalid;
    Alcotest.test_case "int covers residues" `Quick test_int_covers_all_residues;
    Alcotest.test_case "int wide bound" `Quick test_int_wide_bound;
    Alcotest.test_case "int wide pow2 accepts all" `Quick
      test_int_wide_pow2_no_rejection;
    Alcotest.test_case "bool balanced" `Quick test_bool_balanced;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "fork independence" `Quick test_fork_independent;
    Alcotest.test_case "split advances parent" `Quick test_split_advances_parent;
    QCheck_alcotest.to_alcotest prop_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_int_wide_in_bounds;
    QCheck_alcotest.to_alcotest prop_fork_deterministic;
  ]
