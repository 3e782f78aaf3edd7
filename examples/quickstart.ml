(* Quickstart: five asynchronous processes with mixed proposals reach
   agreement through the paper's bounded polynomial protocol, inside
   the deterministic simulator.

     dune exec examples/quickstart.exe *)

open Bprc_runtime

let () =
  let n = 5 in
  (* A simulator = n processes + an adversarial scheduler.  Every
     atomic register access is one scheduling step. *)
  let sim = Sim.create ~seed:2026 ~n ~adversary:(Adversary.random ()) () in

  (* Instantiate the protocol over this simulator's shared memory. *)
  let module Consensus = Bprc_core.Ads89.Make ((val Sim.runtime sim)) in
  let consensus = Consensus.create () in

  (* Each process proposes a boolean and runs the protocol. *)
  let proposals = [| true; false; false; true; false |] in
  let handles =
    Array.init n (fun i ->
        Sim.spawn sim (fun () -> Consensus.run consensus ~input:proposals.(i)))
  in

  (* Let the adversary drive everyone to completion. *)
  (match Sim.run sim with
  | Sim.Completed -> ()
  | Sim.Hit_step_limit -> failwith "step limit reached");

  Array.iteri
    (fun i h ->
      Fmt.pr "process %d proposed %b, decided %a@." i proposals.(i)
        Fmt.(option ~none:(any "nothing") bool)
        (Sim.result h))
    handles;

  let stats = Consensus.stats consensus in
  Fmt.pr "@.total shared-memory steps : %d@." (Sim.clock sim);
  Fmt.pr "rounds used               : %d@." stats.Bprc_core.Ads89.max_raw_round;
  Fmt.pr "coin walk steps           : %d@." stats.Bprc_core.Ads89.walk_steps;
  Fmt.pr "register size (bounded!)  : %d bits@."
    (Bprc_space.Space.max_register_bits (Consensus.space consensus))
