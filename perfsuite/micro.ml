(* Per-layer micro rows of the traced run: fixed work in one layer, at
   the workload's own process count, scheduler and snapshot, reported
   as the median of [reps] repetitions. *)

module Sim = Bprc_runtime.Sim
module Adversary = Bprc_runtime.Adversary
module Ec = Bprc_strip.Edge_counters
module Dg = Bprc_strip.Distance_graph
module Splitmix = Bprc_rng.Splitmix

let reps = 3

(* Scaled-down (smoke) runs use a tenth of every budget. *)
let budget ~quick full = if quick then full / 10 else full

let median_of f = Meter.median (List.init reps (fun _ -> f ()))

(* The simulator alone: [n] processes writing and reading private
   registers.  Returns (ns per step, minor words per step). *)
let raw_sim ~quick ~n ~adversary =
  let budget = budget ~quick 1_000_000 in
  let once () =
    let sim = Sim.create ~seed:1 ~max_steps:max_int ~n ~adversary:(adversary ()) () in
    let (module R) = Sim.runtime sim in
    let iters = budget / (2 * n) in
    for _ = 1 to n do
      let r = R.make_reg 0 in
      ignore
        (Sim.spawn sim (fun () ->
             for k = 1 to iters do
               R.write r k;
               ignore (R.read r)
             done))
    done;
    let w0 = Gc.minor_words () in
    let t0 = Meter.now_ns () in
    (match Sim.run sim with
    | Sim.Completed -> ()
    | Sim.Hit_step_limit -> failwith "raw-sim micro row hit its step bound");
    let ns = Meter.now_ns () - t0 in
    let steps = float_of_int (Sim.clock sim) in
    (float_of_int ns /. steps, (Gc.minor_words () -. w0) /. steps)
  in
  let runs = List.init reps (fun _ -> once ()) in
  (Meter.median (List.map fst runs), Meter.median (List.map snd runs))

(* Strip decode: counter rows into the scratch matrix, the distance
   graph, and its position reconstruction — what one protocol scan
   costs in the strip layer — over valid states reached by seeded
   sequential [apply_inc] walks.  Microseconds per decode. *)
let decode_us ~quick ~k ~n =
  let rng = Splitmix.create ~seed:(0xDEC + n) in
  let ec = Ec.create ~k ~n in
  let states =
    Array.init 16 (fun _ ->
        for _ = 1 to n do
          Ec.apply_inc ec (Splitmix.int rng n)
        done;
        if not (Ec.valid ec) then failwith "decode micro row: invalid state";
        Ec.rows ec)
  in
  let scratch = Ec.create ~k ~n and g = Dg.create_scratch ~k ~n in
  let decode rows =
    Ec.set_rows scratch rows;
    Ec.to_graph_into scratch g;
    ignore (Dg.reconstruct_into g : bool)
  in
  median_of (fun () ->
      let t0 = Meter.now_ns () in
      let count = ref 0 in
      while Meter.now_ns () - t0 < budget ~quick 30_000_000 do
        Array.iter decode states;
        count := !count + Array.length states
      done;
      float_of_int (Meter.now_ns () - t0) /. 1e3 /. float_of_int !count)

(* One write plus one [scan_into] per process, all [n] processes at
   once under the workload's scheduler, until a step budget runs out.
   Microseconds per completed pair. *)
let scan_us ~quick ~n ~adversary ~(snapshot : Wired.snapshot) =
  let budget = budget ~quick (if n > 16 then 1_000_000 else 400_000) in
  median_of (fun () ->
      let sim = Sim.create ~seed:2 ~max_steps:budget ~n ~adversary:(adversary ()) () in
      let rt = Sim.runtime sim in
      let (module S : Bprc_snapshot.Snapshot_intf.S) =
        match snapshot with
        | Wired.Handshake ->
          (module Bprc_snapshot.Handshake.Make ((val rt)))
        | Wired.Embedded -> (module Bprc_snapshot.Embedded.Make ((val rt)))
      in
      let mem = S.create ~init:0 () in
      let pairs = ref 0 in
      for i = 0 to n - 1 do
        ignore
          (Sim.spawn sim (fun () ->
               let view = Array.make n 0 in
               let k = ref 0 in
               while true do
                 incr k;
                 S.write mem ((!k * n) + i);
                 S.scan_into mem view;
                 incr pairs
               done))
      done;
      let t0 = Meter.now_ns () in
      ignore (Sim.run sim : Sim.outcome);
      let ns = Meter.now_ns () - t0 in
      if !pairs = 0 then failwith "scan micro row completed no scan";
      float_of_int ns /. 1e3 /. float_of_int !pairs)

(* The standalone bounded-walk coin: wall time per walk step. *)
let walk_step_ns ~quick ~n =
  median_of (fun () ->
      let t0 = Meter.now_ns () in
      let steps = ref 0 and seed = ref 0 in
      while Meter.now_ns () - t0 < budget ~quick 30_000_000 do
        incr seed;
        let r = Bprc_harness.Run.coin_once ~n ~seed:!seed () in
        if not r.Bprc_harness.Run.coin_completed then
          failwith "coin micro row did not complete";
        steps := !steps + r.Bprc_harness.Run.walk_steps
      done;
      float_of_int (Meter.now_ns () - t0) /. float_of_int (max 1 !steps))
