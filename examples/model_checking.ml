(* The exhaustive explorer as a user tool: model-check your own tiny
   shared-memory algorithm over EVERY schedule and coin outcome.

   Here we check a classic interview-question "algorithm": two
   processes try to achieve mutual exclusion with two flags and no
   turn variable (the broken precursor of Peterson's algorithm).  The
   explorer visits every interleaving and finds both of its bugs:
   mutual-exclusion holds but deadlock is possible — and a naive
   "fix" (skip waiting) breaks mutual exclusion.

     dune exec examples/model_checking.exe *)

open Bprc_runtime
module Explorer = Bprc_check.Explorer

(* Flags-only protocol: set my flag, wait until the other's flag is
   down, enter, leave.  [polite] = true waits; false barges in.  Runs
   cut off at the step bound never reach the check: they are the
   deadlocks, counted in [stats.step_limited]. *)
let run_protocol ~polite =
  let violations = ref 0 in
  let setup sim =
    let (module R) = Sim.runtime sim in
    let flag = [| R.make_reg ~name:"flag0" false; R.make_reg ~name:"flag1" false |] in
    let in_cs = [| R.make_reg false; R.make_reg false |] in
    let both_seen = ref false in
    let body i =
      let j = 1 - i in
      R.write flag.(i) true;
      (if polite then
         while R.read flag.(j) do
           R.yield ()
         done);
      R.write in_cs.(i) true;
      (* Critical section: observe whether the peer is also in. *)
      if R.read in_cs.(j) then both_seen := true;
      R.write in_cs.(i) false;
      R.write flag.(i) false
    in
    for i = 0 to 1 do
      ignore (Sim.spawn sim (fun () -> body i))
    done;
    fun () ->
      if !both_seen then incr violations;
      Ok ()
  in
  let stats =
    Explorer.explore ~n:2 ~max_steps:60 ~max_runs:20_000 ~reduction:false
      ~setup ()
  in
  (stats, !violations)

let () =
  Fmt.pr "model-checking the flags-only mutual exclusion protocol@.@.";
  let report label (stats : Explorer.stats) violations =
    Fmt.pr "%s: %d schedules (%s), %d deadlocked, %d exclusion violations@."
      label stats.runs
      (if stats.exhausted then "exhaustive" else "truncated")
      stats.step_limited violations
  in
  let stats, violations = run_protocol ~polite:true in
  report "polite variant  " stats violations;
  let stats', violations' = run_protocol ~polite:false in
  report "barging variant " stats' violations';
  Fmt.pr
    "@.the explorer exhibits both classic failures: waiting on flags alone@.\
     can deadlock (both flags up), and not waiting breaks mutual exclusion.@.\
     The same machinery verifies this repository's registers@.\
     and snapshot objects exhaustively (see test/).@.";
  if stats.step_limited = 0 || violations' = 0 then exit 1
