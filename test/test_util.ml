open Bprc_util

let test_push_get () =
  let v = Vec.create () in
  Alcotest.(check int) "empty length" 0 (Vec.length v);
  Alcotest.(check bool) "is_empty" true (Vec.is_empty v);
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 0" 0 (Vec.get v 0);
  Alcotest.(check int) "get 99" (99 * 99) (Vec.get v 99);
  Alcotest.(check bool) "not empty" false (Vec.is_empty v)

let test_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "get negative"
    (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v (-1)))

let test_pop_last () =
  let v = Vec.of_list [ 10; 20 ] in
  Alcotest.(check (option int)) "last" (Some 20) (Vec.last v);
  Alcotest.(check (option int)) "pop" (Some 20) (Vec.pop v);
  Alcotest.(check (option int)) "pop" (Some 10) (Vec.pop v);
  Alcotest.(check (option int)) "pop empty" None (Vec.pop v);
  Alcotest.(check (option int)) "last empty" None (Vec.last v)

let test_iter_fold () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  let sum = Vec.fold ( + ) 0 v in
  Alcotest.(check int) "fold sum" 10 sum;
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check int) "iteri count" 4 (List.length !acc);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 3) v);
  Alcotest.(check bool) "exists not" false (Vec.exists (fun x -> x = 9) v)

let test_clear () =
  let v = Vec.of_list [ 1; 2 ] in
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v);
  Vec.push v 7;
  Alcotest.(check (list int)) "reusable" [ 7 ] (Vec.to_list v)

(* Space-leak regressions: vacated slots must not pin popped/cleared
   elements.  Weak pointers observe whether the GC can reclaim them. *)
let weak_of x =
  let w = Weak.create 1 in
  Weak.set w 0 (Some x);
  w

let test_pop_releases () =
  let v = Vec.create () in
  Vec.push v (ref 1);
  Vec.push v (ref 2);
  let w = weak_of (Vec.get v 1) in
  ignore (Vec.pop v);
  Gc.full_major ();
  Alcotest.(check bool) "popped element reclaimed" false (Weak.check w 0);
  Alcotest.(check int) "survivor intact" 1 !(Vec.get v 0)

let test_pop_to_empty_releases () =
  let v = Vec.create () in
  Vec.push v (ref 42);
  let w = weak_of (Vec.get v 0) in
  ignore (Vec.pop v);
  Gc.full_major ();
  Alcotest.(check bool) "last element reclaimed" false (Weak.check w 0);
  Vec.push v (ref 7);
  Alcotest.(check int) "reusable after emptying" 7 !(Vec.get v 0)

let test_clear_releases () =
  let v = Vec.create () in
  for i = 0 to 9 do
    Vec.push v (ref i)
  done;
  let w0 = weak_of (Vec.get v 0) in
  let w9 = weak_of (Vec.get v 9) in
  Vec.clear v;
  Gc.full_major ();
  Alcotest.(check bool) "first element reclaimed" false (Weak.check w0 0);
  Alcotest.(check bool) "last element reclaimed" false (Weak.check w9 0)

let test_to_array () =
  let v = Vec.of_list [ 5; 6; 7 ] in
  Alcotest.(check (array int)) "to_array" [| 5; 6; 7 |] (Vec.to_array v)

let prop_roundtrip =
  QCheck.Test.make ~name:"vec of_list/to_list roundtrip" ~count:200
    QCheck.(list int)
    (fun xs -> Vec.to_list (Vec.of_list xs) = xs)

let prop_push_length =
  QCheck.Test.make ~name:"vec length equals pushes" ~count:200
    QCheck.(small_nat)
    (fun k ->
      let v = Vec.create () in
      for i = 1 to k do
        Vec.push v i
      done;
      Vec.length v = k)

(* The shared field decoders of saved documents: their error strings
   are part of the witness and hunt-script file contracts. *)
let test_json_document_fields () =
  let doc s = Result.get_ok (Json.of_string s) in
  let ints j =
    Json.list_field ~what:"doc" j "xs" Json.to_int_opt ~bad:"non-integer x"
  in
  let err = Alcotest.(result (list int) string) in
  Alcotest.check err "ints" (Ok [ 3; 1; 2 ]) (ints (doc {|{"xs":[3,1,2]}|}));
  Alcotest.check err "empty" (Ok []) (ints (doc {|{"xs":[]}|}));
  Alcotest.check err "bad element" (Error "doc: non-integer x")
    (ints (doc {|{"xs":[1,true]}|}));
  Alcotest.check err "missing"
    (Error {|doc: missing or ill-typed field "xs"|})
    (ints (doc {|{"ys":[]}|}));
  Alcotest.check err "not an array"
    (Error {|doc: missing or ill-typed field "xs"|})
    (ints (doc {|{"xs":1}|}));
  Alcotest.(check (result int string))
    "scalar" (Ok 7)
    (Json.field ~what:"doc" (doc {|{"n":7}|}) "n" Json.to_int_opt)

let suite =
  [
    Alcotest.test_case "json: document fields" `Quick
      test_json_document_fields;
    Alcotest.test_case "push/get" `Quick test_push_get;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "pop/last" `Quick test_pop_last;
    Alcotest.test_case "iter/fold/exists" `Quick test_iter_fold;
    Alcotest.test_case "clear and reuse" `Quick test_clear;
    Alcotest.test_case "pop releases element" `Quick test_pop_releases;
    Alcotest.test_case "pop to empty releases" `Quick test_pop_to_empty_releases;
    Alcotest.test_case "clear releases elements" `Quick test_clear_releases;
    Alcotest.test_case "to_array" `Quick test_to_array;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_push_length;
  ]
