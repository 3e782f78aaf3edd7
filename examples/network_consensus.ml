(* Consensus without shared memory: the paper's protocol over an
   asynchronous message-passing network.

   The Attiya–Bar-Noy–Dolev-style emulation replicates every register
   across the nodes with majority quorums (lib/netsim), exposing the
   same Runtime_intf the shared-memory simulator exposes —
   so the 1989 shared-memory protocol runs here unchanged, with every
   register step paid for in quorum round-trips, tolerating a crashed
   minority of nodes.

     dune exec examples/network_consensus.exe *)

open Bprc_netsim

let () =
  let n = 3 in
  let t = Abd.create ~seed:77 ~max_events:20_000_000 ~n () in
  let module Consensus = Bprc_core.Ads89.Make ((val Abd.runtime t)) in
  let cons = Consensus.create () in
  let inputs = [| true; false; true |] in
  let handles =
    Array.init n (fun i ->
        Abd.spawn_client t (fun () -> Consensus.run cons ~input:inputs.(i)))
  in
  (match Abd.run t with
  | `Completed -> ()
  | `Deadlock -> failwith "deadlock"
  | `Event_limit -> failwith "event limit");
  Array.iteri
    (fun i h ->
      Fmt.pr "node %d proposed %b, decided %a@." i inputs.(i)
        Fmt.(option ~none:(any "nothing") bool)
        (Abd.result h))
    handles;
  Fmt.pr "@.network events     : %d@." (Abd.events t);
  Fmt.pr "messages sent      : %d@." (Abd.messages_sent t);
  Fmt.pr "quorum phases      : %d@." (Abd.quorum_ops t);
  Fmt.pr "register footprint : still %d bits per process — the bound@."
    (Bprc_space.Space.max_register_bits (Consensus.space cons));
  Fmt.pr "survives the change of substrate.@."
