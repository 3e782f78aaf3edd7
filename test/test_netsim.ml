open Bprc_netsim
module Hist = Bprc_check.Hist
module Specs = Bprc_check.Specs
module Reg_lin = Bprc_check.Lin.Make (Specs.Register)

(* ------------------------------------------------------------------ *)
(* Netsim basics                                                       *)
(* ------------------------------------------------------------------ *)

module Ping_msg = struct
  type msg = Ping | Pong
end

module Ping = Netsim.Make (Ping_msg)

let test_ping_pong () =
  let net = Ping.create ~seed:1 ~n:2 () in
  let h0 =
    Ping.spawn net (fun () ->
        Ping.send net ~dst:1 Ping_msg.Ping;
        let src, m = Ping.recv net in
        (src, m = Ping_msg.Pong))
  in
  let _h1 =
    Ping.spawn net (fun () ->
        let src, m = Ping.recv net in
        if m = Ping_msg.Ping then Ping.send net ~dst:src Ping_msg.Pong)
  in
  (match Ping.run net with
  | Ping.Completed -> ()
  | _ -> Alcotest.fail "ping-pong did not complete");
  Alcotest.(check (option (pair int bool))) "pong received" (Some (1, true))
    (Ping.result h0);
  Alcotest.(check int) "two messages" 2 (Ping.messages_sent net)

let test_deadlock_detected () =
  let net = Ping.create ~seed:1 ~n:2 () in
  let _ = Ping.spawn net (fun () -> ignore (Ping.recv net)) in
  let _ = Ping.spawn net (fun () -> ignore (Ping.recv net)) in
  match Ping.run net with
  | Ping.Deadlock -> ()
  | _ -> Alcotest.fail "mutual recv must deadlock"

let test_crash_drops_messages () =
  let net = Ping.create ~seed:1 ~n:2 () in
  let _ = Ping.spawn net (fun () -> Ping.send net ~dst:1 Ping_msg.Ping) in
  let _ = Ping.spawn net (fun () -> ignore (Ping.recv net)) in
  Ping.crash net 1;
  match Ping.run net with
  | Ping.Completed -> ()
  | _ -> Alcotest.fail "sender should finish; message to crashed node dropped"

let test_broadcast_and_reordering () =
  (* One node broadcasts a sequence; receivers may see any interleaving
     but each link is reliable: every receiver gets all messages. *)
  let module Seq_msg = struct
    type msg = int
  end in
  let module Seq = Netsim.Make (Seq_msg) in
  let n = 4 in
  let net = Seq.create ~seed:9 ~n () in
  let _sender =
    Seq.spawn net (fun () ->
        for k = 1 to 5 do
          Seq.broadcast net k
        done;
        [])
  in
  let receivers =
    Array.init (n - 1) (fun _ ->
        Seq.spawn net (fun () -> List.init 5 (fun _ -> snd (Seq.recv net))))
  in
  (match Seq.run net with
  | Seq.Completed -> ()
  | _ -> Alcotest.fail "did not complete");
  Array.iter
    (fun h ->
      match Seq.result h with
      | None -> Alcotest.fail "receiver incomplete"
      | Some got ->
        Alcotest.(check (list int)) "all messages, any order" [ 1; 2; 3; 4; 5 ]
          (List.sort compare got))
    receivers

let test_determinism () =
  let once () =
    let net = Ping.create ~seed:33 ~n:2 () in
    let h =
      Ping.spawn net (fun () ->
          Ping.send net ~dst:1 Ping_msg.Ping;
          let _ = Ping.recv net in
          Ping.events net)
    in
    let _ =
      Ping.spawn net (fun () ->
          let src, _ = Ping.recv net in
          Ping.send net ~dst:src Ping_msg.Pong)
    in
    ignore (Ping.run net);
    Ping.result h
  in
  Alcotest.(check bool) "same seed same events" true (once () = once ())

(* ------------------------------------------------------------------ *)
(* ABD registers                                                       *)
(* ------------------------------------------------------------------ *)

let test_abd_sequential_read_write () =
  let t = Abd.create ~seed:1 ~n:3 () in
  let (module R) = Abd.runtime t in
  let reg = R.make_reg ~name:"x" 0 in
  let h0 =
    Abd.spawn_client t (fun () ->
        R.write reg 41;
        R.write reg 42;
        R.read reg)
  in
  let _ = Abd.spawn_client t (fun () -> ()) in
  let _ = Abd.spawn_client t (fun () -> ()) in
  (match Abd.run t with
  | `Completed -> ()
  | _ -> Alcotest.fail "did not complete");
  Alcotest.(check (option int)) "reads own writes" (Some 42) (Abd.result h0);
  Alcotest.(check bool) "quorum traffic happened" true (Abd.messages_sent t > 0)

let test_abd_cross_node_visibility () =
  let t = Abd.create ~seed:2 ~n:3 () in
  let (module R) = Abd.runtime t in
  let reg = R.make_reg ~name:"x" 0 in
  let flag = R.make_reg ~name:"flag" false in
  let h_writer =
    Abd.spawn_client t (fun () ->
        R.write reg 7;
        R.write flag true)
  in
  let h_reader =
    Abd.spawn_client t (fun () ->
        (* Spin until the flag is up, then the value must be visible
           (write order through quorums). *)
        while not (R.read flag) do
          R.yield ()
        done;
        R.read reg)
  in
  let _ = Abd.spawn_client t (fun () -> ()) in
  (match Abd.run t with
  | `Completed -> ()
  | o ->
    Alcotest.failf "did not complete (%s)"
      (match o with `Deadlock -> "deadlock" | _ -> "limit"));
  ignore h_writer;
  Alcotest.(check (option int)) "causal visibility through quorums" (Some 7)
    (Abd.result h_reader)

let test_abd_atomicity_histories () =
  (* Record a full read/write history over the emulated register and
     hand it to the linearizability checker. *)
  for seed = 1 to 12 do
    let t = Abd.create ~seed ~n:3 () in
    let (module R) = Abd.runtime t in
    let reg = R.make_reg ~name:"x" 0 in
    let hist = Hist.create () in
    let timed pid kind f =
      let s = Hist.stamp hist in
      let r = f () in
      Hist.record hist ~pid ~start_time:s ~finish_time:(Hist.stamp hist)
        (kind r);
      r
    in
    let _w =
      Abd.spawn_client t (fun () ->
          for v = 1 to 3 do
            timed 0
              (fun _ -> Specs.Write ((10 * 0) + v))
              (fun () ->
                R.write reg ((10 * 0) + v);
                (10 * 0) + v)
            |> ignore
          done)
    in
    let _w2 =
      Abd.spawn_client t (fun () ->
          for v = 1 to 3 do
            timed 1
              (fun _ -> Specs.Write ((10 * 1) + v))
              (fun () ->
                R.write reg ((10 * 1) + v);
                (10 * 1) + v)
            |> ignore
          done)
    in
    let _r =
      Abd.spawn_client t (fun () ->
          for _ = 1 to 4 do
            ignore
              (timed 2
                 (fun v -> Specs.Read v)
                 (fun () -> R.read reg))
          done)
    in
    (match Abd.run t with
    | `Completed -> ()
    | _ -> Alcotest.failf "seed %d did not complete" seed);
    if Reg_lin.check (Hist.events hist) = Reg_lin.Not_linearizable then
      Alcotest.failf "ABD atomicity violation at seed %d" seed
  done

let test_abd_tolerates_minority_crash () =
  (* n = 5, crash 2 replicas mid-run: the remaining majority finishes
     its operations (the run ends in deadlock because the crashed
     nodes never broadcast Done — expected; results must be present). *)
  let t = Abd.create ~seed:4 ~n:5 () in
  let (module R) = Abd.runtime t in
  let reg = R.make_reg ~name:"x" 0 in
  let workers =
    Array.init 3 (fun i ->
        Abd.spawn_client t (fun () ->
            R.write reg (i + 1);
            R.read reg))
  in
  let _v1 = Abd.spawn_client t (fun () -> ()) in
  let _v2 = Abd.spawn_client t (fun () -> ()) in
  Abd.crash t 3;
  Abd.crash t 4;
  (match Abd.run t with
  | `Completed | `Deadlock -> ()
  | `Event_limit -> Alcotest.fail "event limit");
  Array.iter
    (fun h ->
      match Abd.result h with
      | Some v -> Alcotest.(check bool) "read a written value" true (v >= 1 && v <= 3)
      | None -> Alcotest.fail "worker did not finish despite live majority")
    workers

(* ------------------------------------------------------------------ *)
(* The headline: the paper's consensus over the emulated network       *)
(* ------------------------------------------------------------------ *)

let test_consensus_over_the_network () =
  for seed = 1 to 5 do
    let n = 3 in
    let t = Abd.create ~seed ~max_events:20_000_000 ~n () in
    let module C = Bprc_core.Ads89.Make ((val Abd.runtime t)) in
    let cons = C.create () in
    let inputs = [| seed mod 2 = 0; true; false |] in
    let handles =
      Array.init n (fun i ->
          Abd.spawn_client t (fun () -> C.run cons ~input:inputs.(i)))
    in
    (match Abd.run t with
    | `Completed -> ()
    | `Deadlock -> Alcotest.failf "net-consensus: seed %d deadlocked" seed
    | `Event_limit -> Alcotest.failf "net-consensus: seed %d event limit" seed);
    let decisions = Array.map Abd.result handles in
    (match Bprc_core.Spec.check ~inputs ~decisions with
    | Ok () -> ()
    | Error e -> Alcotest.failf "net-consensus: seed %d: %s" seed e);
    if Array.exists (fun d -> d = None) decisions then
      Alcotest.failf "net-consensus: seed %d: undecided node" seed
  done

(* ------------------------------------------------------------------ *)
(* Crash semantics (pinned by the netsim.mli "Crash semantics" doc)    *)
(* ------------------------------------------------------------------ *)

let test_crash_while_blocked_in_recv () =
  (* Node 1 blocks in recv; node 0 crashes it mid-run, sends it a
     message anyway (allowed; dropped at delivery) and finishes.  The
     run must end Completed: everyone is finished or crashed, even
     though a message is still in flight. *)
  let net = Ping.create ~seed:5 ~n:2 () in
  let h0 =
    Ping.spawn net (fun () ->
        (* Give node 1 time to start and block. *)
        Ping.yield net;
        Ping.yield net;
        Ping.crash net 1;
        Ping.send net ~dst:1 Ping_msg.Ping;
        "done")
  in
  let h1 = Ping.spawn net (fun () -> ignore (Ping.recv net)) in
  (match Ping.run net with
  | Ping.Completed -> ()
  | Ping.Deadlock -> Alcotest.fail "crashed receiver must not deadlock the run"
  | Ping.Hit_event_limit -> Alcotest.fail "event limit");
  Alcotest.(check (option string)) "live node finished" (Some "done")
    (Ping.result h0);
  Alcotest.(check (option unit)) "crashed node's continuation abandoned" None
    (Ping.result h1);
  Alcotest.(check bool) "node 1 reported crashed" true (Ping.crashed net 1)

let test_crash_idempotent_and_after_finish () =
  let net = Ping.create ~seed:6 ~n:2 () in
  let h0 = Ping.spawn net (fun () -> 41 + 1) in
  let _h1 = Ping.spawn net (fun () -> ignore (Ping.recv net)) in
  Ping.crash net 1;
  Ping.crash net 1;
  (match Ping.run net with
  | Ping.Completed -> ()
  | _ -> Alcotest.fail "did not complete");
  (* Crashing an already-finished node is a no-op: the result stays. *)
  Ping.crash net 0;
  Alcotest.(check (option int)) "result survives post-finish crash" (Some 42)
    (Ping.result h0)

let test_all_crashed_completes () =
  (* No live node left: Completed, not Deadlock — there is nobody to
     observe the blocked mailboxes. *)
  let net = Ping.create ~seed:11 ~n:2 () in
  let _ = Ping.spawn net (fun () -> ignore (Ping.recv net)) in
  let _ = Ping.spawn net (fun () -> ignore (Ping.recv net)) in
  Ping.crash net 0;
  Ping.crash net 1;
  match Ping.run net with
  | Ping.Completed -> ()
  | Ping.Deadlock -> Alcotest.fail "all-crashed run must report Completed"
  | Ping.Hit_event_limit -> Alcotest.fail "event limit"

(* ------------------------------------------------------------------ *)
(* Link-fault hooks                                                    *)
(* ------------------------------------------------------------------ *)

let test_fault_hook_drop () =
  let net = Ping.create ~seed:7 ~n:2 () in
  Ping.set_fault_hook net (fun ~nth ~src:_ ~dst:_ ->
      if nth = 0 then Netsim.Drop else Netsim.Pass);
  let _ = Ping.spawn net (fun () -> Ping.send net ~dst:1 Ping_msg.Ping) in
  let _ = Ping.spawn net (fun () -> ignore (Ping.recv net)) in
  (match Ping.run net with
  | Ping.Deadlock -> ()
  | _ -> Alcotest.fail "receiver of a dropped message must deadlock");
  Alcotest.(check int) "the send itself still counted" 1
    (Ping.messages_sent net)

let test_fault_hook_duplicate () =
  let net = Ping.create ~seed:8 ~n:2 () in
  Ping.set_fault_hook net (fun ~nth ~src:_ ~dst:_ ->
      if nth = 0 then Netsim.Duplicate else Netsim.Pass);
  let _ = Ping.spawn net (fun () -> Ping.send net ~dst:1 Ping_msg.Ping) in
  let h =
    Ping.spawn net (fun () ->
        let _, a = Ping.recv net in
        let _, b = Ping.recv net in
        (a = Ping_msg.Ping, b = Ping_msg.Ping))
  in
  (match Ping.run net with
  | Ping.Completed -> ()
  | _ -> Alcotest.fail "duplicate must yield two deliveries");
  Alcotest.(check (option (pair bool bool))) "both copies identical"
    (Some (true, true)) (Ping.result h)

let test_fault_hook_delay_orders_behind () =
  (* Delay the first message far beyond the run's natural length: the
     second, undelayed message must be delivered first, and the delayed
     one must still arrive (the clock advances when only delayed
     messages remain). *)
  let module Seq_msg = struct
    type msg = int
  end in
  let module Seq = Netsim.Make (Seq_msg) in
  let net = Seq.create ~seed:9 ~n:2 () in
  Seq.set_fault_hook net (fun ~nth ~src:_ ~dst:_ ->
      if nth = 0 then Netsim.Delay 500 else Netsim.Pass);
  let _ =
    Seq.spawn net (fun () ->
        Seq.send net ~dst:1 1;
        Seq.send net ~dst:1 2)
  in
  let h =
    Seq.spawn net (fun () ->
        let _, a = Seq.recv net in
        let _, b = Seq.recv net in
        (a, b))
  in
  (match Seq.run net with
  | Seq.Completed -> ()
  | Seq.Deadlock -> Alcotest.fail "a delayed message must not be lost"
  | Seq.Hit_event_limit -> Alcotest.fail "event limit");
  Alcotest.(check (option (pair int int))) "undelayed message overtook"
    (Some (2, 1)) (Seq.result h)

let test_fault_hook_broadcast_ordinals () =
  (* Each broadcast destination gets its own ordinal: dropping nth = 1
     loses exactly one destination's copy. *)
  let module Seq_msg = struct
    type msg = int
  end in
  let module Seq = Netsim.Make (Seq_msg) in
  let net = Seq.create ~seed:10 ~n:3 () in
  Seq.set_fault_hook net (fun ~nth ~src:_ ~dst:_ ->
      if nth = 1 then Netsim.Drop else Netsim.Pass);
  let _ = Seq.spawn net (fun () -> Seq.broadcast net 7) in
  let h1 = Seq.spawn net (fun () -> snd (Seq.recv net)) in
  let h2 = Seq.spawn net (fun () -> snd (Seq.recv net)) in
  (match Seq.run net with
  | Seq.Deadlock -> ()
  | _ -> Alcotest.fail "one starved receiver must deadlock the run");
  (* Broadcast walks destinations in node order, so ordinal 0 went to
     node 1 and ordinal 1 to node 2: node 2's copy is the one lost. *)
  let got = List.filter_map Seq.result [ h1; h2 ] in
  Alcotest.(check (list int)) "exactly one copy delivered" [ 7 ] got;
  Alcotest.(check (option int)) "node 1's copy survived" (Some 7)
    (Seq.result h1);
  Alcotest.(check (option int)) "node 2 starved" None (Seq.result h2)

let fault_suite =
  [
    Alcotest.test_case "net: crash in recv" `Quick test_crash_while_blocked_in_recv;
    Alcotest.test_case "net: crash idempotent" `Quick
      test_crash_idempotent_and_after_finish;
    Alcotest.test_case "net: all crashed completes" `Quick
      test_all_crashed_completes;
    Alcotest.test_case "net: fault hook drop" `Quick test_fault_hook_drop;
    Alcotest.test_case "net: fault hook duplicate" `Quick
      test_fault_hook_duplicate;
    Alcotest.test_case "net: fault hook delay" `Quick
      test_fault_hook_delay_orders_behind;
    Alcotest.test_case "net: broadcast ordinals" `Quick
      test_fault_hook_broadcast_ordinals;
  ]

let suite =
  [
    Alcotest.test_case "net: ping pong" `Quick test_ping_pong;
    Alcotest.test_case "net: deadlock detection" `Quick test_deadlock_detected;
    Alcotest.test_case "net: crash drops" `Quick test_crash_drops_messages;
    Alcotest.test_case "net: broadcast + reorder" `Quick
      test_broadcast_and_reordering;
    Alcotest.test_case "net: determinism" `Quick test_determinism;
    Alcotest.test_case "abd: sequential" `Quick test_abd_sequential_read_write;
    Alcotest.test_case "abd: cross-node visibility" `Quick
      test_abd_cross_node_visibility;
    Alcotest.test_case "abd: linearizable histories" `Quick
      test_abd_atomicity_histories;
    Alcotest.test_case "abd: minority crash" `Quick
      test_abd_tolerates_minority_crash;
    Alcotest.test_case "consensus over the network" `Slow
      test_consensus_over_the_network;
  ]
  @ fault_suite
