(* The scannable memory (§2) on its own: a sensor fusion board.

   Several sensor processes publish readings; a fusion process needs
   *coherent* views — it must never combine a new reading from one
   sensor with a reading from another sensor that was already
   overwritten when the first was made.  A naive per-register read
   sequence can produce exactly that tear; the paper's handshake
   snapshot cannot (properties P1-P3), and the checker proves it on the
   recorded execution.

     dune exec examples/snapshot_sensors.exe *)

open Bprc_runtime
open Bprc_snapshot

let () =
  let sensors = 4 in
  let n = sensors + 1 in
  let sim = Sim.create ~seed:7 ~n ~adversary:(Adversary.bursty ~burst:9 ()) () in
  let module S = Handshake.Make ((val Sim.runtime sim)) in
  let board = S.create ~init:0 () in
  let checker = Snap_checker.create ~n ~init:0 in

  (* Sensor i publishes increasing readings. *)
  for _ = 1 to sensors do
    ignore
      (Sim.spawn sim (fun () ->
           let me = ref 0 in
           for reading = 1 to 8 do
             let s = Snap_checker.stamp checker in
             S.write board reading;
             me := reading;
             Snap_checker.record_write checker
               ~pid:
                 ((* pid known only inside; recover via the runtime *)
                  let (module R) = Sim.runtime sim in
                  R.pid ())
               ~start_time:s
               ~finish_time:(Snap_checker.stamp checker)
               ~value:reading
           done))
  done;

  (* The fusion process takes coherent views. *)
  let views = ref [] in
  ignore
    (Sim.spawn sim (fun () ->
         for _ = 1 to 6 do
           let s = Snap_checker.stamp checker in
           let view = S.scan board in
           Snap_checker.record_scan checker
             ~pid:
               (let (module R) = Sim.runtime sim in
                R.pid ())
             ~start_time:s
             ~finish_time:(Snap_checker.stamp checker)
             ~view;
           views := view :: !views
         done));

  (match Sim.run sim with
  | Sim.Completed -> ()
  | Sim.Hit_step_limit -> failwith "step limit");

  Fmt.pr "fusion process observed (oldest first):@.";
  List.iteri
    (fun i view ->
      Fmt.pr "  view %d: %a@." (i + 1) Fmt.(box (array ~sep:sp int)) view)
    (List.rev !views);
  Fmt.pr "@.scan retries forced by concurrent writes: %d@."
    (S.scan_retries board);
  match Snap_checker.check_all checker with
  | Ok () ->
    Fmt.pr "checker: every view satisfies P1 (regularity), P2 (snapshot),@.";
    Fmt.pr "         and P3 (scan serializability)@."
  | Error e ->
    Fmt.pr "checker: VIOLATION — %s@." e;
    exit 1
