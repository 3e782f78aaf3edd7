(* Exhaustive exploration for suites that describe a configuration as
   a per-process [body] plus a [check], both over one runtime. *)

(* The explorer setup that spawns [body i] for every pid and returns
   the check. *)
let setup ~n f sim =
  let body, check = f (Bprc_runtime.Sim.runtime sim) in
  for i = 0 to n - 1 do
    ignore (Bprc_runtime.Sim.spawn sim (fun () -> body i))
  done;
  check

(* Always unreduced: bodies may share OCaml state that register-level
   independence cannot see. *)
let explore ~n ?max_steps ?max_runs ?shrink f =
  Bprc_check.Explorer.explore ~n ?max_steps ?max_runs ~reduction:false ?shrink
    ~setup:(setup ~n f) ()

let no_violation (stats : Bprc_check.Explorer.stats) =
  match stats.violation with
  | None -> ()
  | Some w -> Alcotest.failf "violation after %d runs: %s" stats.runs w.failure
