(* Command-line interface to the bounded polynomial randomized
   consensus library: single runs, shared-coin runs, the full
   experiment suite, and the fault-injection hunt/replay loop. *)

open Cmdliner

(* Shared by every randomness-consuming subcommand (run / coin / multi
   / trace / hunt); [experiment] derives its seeds from fixed
   per-experiment roots instead, so its tables are comparable across
   invocations. *)
let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Random seed (default 1).  Every run is deterministic in it, \
           independent of $(b,--workers).")

(* The exit codes [main] maps parse results to.  Commands with outcome
   codes of their own (violation, bound hit) describe them in [~doc]. *)
let cmd_info =
  Cmd.info
    ~exits:
      [
        Cmd.Exit.info Cmd.Exit.ok ~doc:"on success.";
        Cmd.Exit.info 2 ~doc:"on usage errors, command-line parsing included.";
        Cmd.Exit.info Cmd.Exit.internal_error
          ~doc:"on unexpected internal errors (bugs).";
      ]

(* Integer options with a range: a value outside it is a usage error
   (exit 2), not an exception from deep inside a run. *)
let int_in ~lo ~hi ~expected =
  let parse s =
    match int_of_string_opt s with
    | Some v when lo <= v && v <= hi -> Ok v
    | _ -> Error (Printf.sprintf "invalid value '%s', expected %s" s expected)
  in
  Arg.conv' (parse, Fmt.int)

let positive_int = int_in ~lo:1 ~hi:max_int ~expected:"a positive integer"

(* A wall-clock budget: zero or a negative value would be a vacuous bound
   hit (124) and NaN would silently disable the budget, so only a
   positive finite number of seconds parses. *)
let positive_seconds =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v > 0. -> Ok v
    | _ ->
      Error
        (Printf.sprintf "invalid value '%s', expected a positive number of seconds"
           s)
  in
  Arg.conv' (parse, Fmt.float)

(* The options checked after parsing keep the message their goldens
   pin; [positive_int] is the same predicate at parse time. *)
let require_positive ~flag v =
  if v < 1 then begin
    Fmt.epr "%s expects a positive integer@." flag;
    exit 2
  end

let workers_opt_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Fan trials over $(docv) domains (default: one per core, \
           overridable via BPRC_WORKERS).  Results are identical at any \
           worker count.")

let pool_of_workers workers =
  match workers with
  | Some w ->
    require_positive ~flag:"--workers" w;
    Bprc_harness.Pool.create ~workers:w ()
  | None -> Bprc_harness.Pool.default ()

let n_arg =
  Arg.(
    value & opt positive_int 4
    & info [ "n"; "procs" ] ~docv:"N" ~doc:"Number of processes.")

let sched_conv =
  let parse = function
    | "random" -> Ok Bprc_harness.Run.Random_sched
    | "rr" | "round-robin" -> Ok Bprc_harness.Run.Round_robin_sched
    | "anti-coin" -> Ok Bprc_harness.Run.Anti_coin_sched
    | "split" -> Ok Bprc_harness.Run.Osc_coin_sched
    | s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "bursty" -> (
        match
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
        with
        | Some b when b > 0 -> Ok (Bprc_harness.Run.Bursty_sched b)
        | _ -> Error (`Msg "bursty:<positive burst> expected"))
      | None | Some _ -> Error (`Msg ("unknown scheduler " ^ s)))
  in
  let print ppf s = Fmt.string ppf (Bprc_harness.Run.sched_name s) in
  Arg.conv (parse, print)

let sched_arg =
  Arg.(
    value
    & opt sched_conv Bprc_harness.Run.Random_sched
    & info [ "sched" ] ~docv:"SCHED"
        ~doc:
          "Scheduler/adversary: random, rr, bursty:K, anti-coin (walk \
           stretcher), split (disagreement seeker).")

let algo_conv =
  let parse = function
    | "ads" | "ads89" -> Ok (Bprc_harness.Run.Ads Bprc_core.Ads89.Shared_walk)
    | "ah" | "ah88" -> Ok Bprc_harness.Run.Ah
    | "local" -> Ok (Bprc_harness.Run.Ads Bprc_core.Ads89.Local_flips)
    | "oracle" -> Ok (Bprc_harness.Run.Ads Bprc_core.Ads89.Oracle_shared)
    | "esnap" | "ads-esnap" ->
      Ok (Bprc_harness.Run.Ads_esnap Bprc_core.Ads89.Shared_walk)
    | "esnap-oracle" ->
      Ok (Bprc_harness.Run.Ads_esnap Bprc_core.Ads89.Oracle_shared)
    | s -> Error (`Msg ("unknown algorithm " ^ s))
  in
  let print ppf a = Fmt.string ppf (Bprc_harness.Run.algo_name a) in
  Arg.conv (parse, print)

let algo_arg =
  Arg.(
    value
    & opt algo_conv (Bprc_harness.Run.Ads Bprc_core.Ads89.Shared_walk)
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:"Algorithm: ads (the paper), ah (unbounded baseline), local \
              (exponential baseline), oracle (perfect coin), esnap / \
              esnap-oracle (the paper's protocol over the wait-free \
              embedded snapshot — the large-n configuration).")

let pattern_conv =
  let parse = function
    | "random" -> Ok Bprc_harness.Run.Random_inputs
    | "split" -> Ok Bprc_harness.Run.Split
    | "ones" -> Ok (Bprc_harness.Run.Unanimous true)
    | "zeros" -> Ok (Bprc_harness.Run.Unanimous false)
    | s -> Error (`Msg ("unknown input pattern " ^ s))
  in
  let print ppf = function
    | Bprc_harness.Run.Random_inputs -> Fmt.string ppf "random"
    | Bprc_harness.Run.Split -> Fmt.string ppf "split"
    | Bprc_harness.Run.Unanimous v -> Fmt.pf ppf "unanimous %b" v
  in
  Arg.conv (parse, print)

let pattern_arg =
  Arg.(
    value
    & opt pattern_conv Bprc_harness.Run.Random_inputs
    & info [ "inputs" ] ~docv:"PATTERN"
        ~doc:"Input pattern: random, split, ones, zeros.")

(* --- run -------------------------------------------------------------- *)

(* A per-process array on its field line, in a box so it wraps only at
   the margin: outside a box, the flush at the line's end would break
   before the last element. *)
let field_array pp_elt = Fmt.(box (array ~sep:sp pp_elt))

let run_cmd =
  let action n seed algo sched pattern =
    let r = Bprc_harness.Run.consensus_once ~sched ~algo ~pattern ~n ~seed () in
    let inputs = Bprc_harness.Run.inputs_of_pattern pattern ~n ~seed in
    Fmt.pr "algorithm : %s@." (Bprc_harness.Run.algo_name algo);
    Fmt.pr "scheduler : %s@." (Bprc_harness.Run.sched_name sched);
    Fmt.pr "inputs    : %a@." (field_array (Fmt.fmt "%b")) inputs;
    Fmt.pr "decisions : %a@."
      (field_array Fmt.(option ~none:(any "?") (fmt "%b")))
      r.Bprc_harness.Run.decisions;
    Fmt.pr "steps     : %d   rounds: %d   walk steps: %d@."
      r.Bprc_harness.Run.steps r.Bprc_harness.Run.max_round
      r.Bprc_harness.Run.walk_steps;
    Fmt.pr "register  : %d bits@." r.Bprc_harness.Run.register_bits;
    Fmt.pr "strip     : %d inconsistent reconstructions@."
      r.Bprc_harness.Run.inconsistent_reconstructions;
    match r.Bprc_harness.Run.spec with
    | Ok () -> Fmt.pr "spec      : consistency and validity hold@."
    | Error e ->
      Fmt.pr "spec      : VIOLATION — %s@." e;
      exit 1
  in
  Cmd.v
    (cmd_info "run" ~doc:"Run one consensus instance in the simulator.")
    Term.(const action $ n_arg $ seed_arg $ algo_arg $ sched_arg $ pattern_arg)


(* --- space-report ------------------------------------------------------ *)

let space_report_cmd =
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the report as JSON (schema bprc-space-report v1).")
  in
  let action n algo json =
    (* Instantiating the protocol allocates every shared register it
       will ever use (the bound is the paper's headline), so the report
       needs a simulator arena but not a single executed step; the
       arena's register counter cross-checks the analytic report. *)
    let adversary = Bprc_runtime.Adversary.random () in
    let sim = Bprc_runtime.Sim.create ~seed:0 ~max_steps:1 ~n ~adversary () in
    let params = Bprc_core.Params.default in
    let (module C : Bprc_core.Consensus_intf.S) =
      Bprc_harness.Run.protocol algo (Bprc_runtime.Sim.batched sim)
    in
    let t = C.create ~params () in
    (* [state_bits] is the static bound, except for the unbounded
       baseline: its (initial) grown maximum *)
    let space = C.space t and state_bits = C.state_bits t in
    let algo_key =
      match algo with
      | Bprc_harness.Run.Ads _ -> "ads"
      | Bprc_harness.Run.Ads_esnap _ -> "esnap"
      | Bprc_harness.Run.Ah -> "ah"
    in
    let module Space = Bprc_space.Space in
    let registers_created = Bprc_runtime.Sim.registers_created sim in
    let k, delta, m = Bprc_core.Params.validate params ~n in
    if json then
      let open Bprc_util.Json in
      Fmt.pr "%s@."
        (to_string
           (Obj
              [
                ("schema", Str "bprc-space-report");
                ("version", Int 1);
                ("algo", Str algo_key);
                ("n", Int n);
                ( "params",
                  Obj [ ("k", Int k); ("delta", Int delta); ("m", Int m) ] );
                ("state_bits", Int state_bits);
                ("space", Space.to_json space);
                ("registers_created", Int registers_created);
              ]))
    else begin
      Fmt.pr "algorithm : %s   n = %d   (k=%d delta=%d m=%d)@."
        (Bprc_harness.Run.algo_name algo)
        n k delta m;
      Fmt.pr "payload   : %d bits of protocol state per segment@." state_bits;
      Fmt.pr "%a@." Space.pp space;
      Fmt.pr "arena     : %d registers created@." registers_created
    end;
    if registers_created <> Space.registers space then begin
      Fmt.epr
        "space-report: analytic report lists %d registers but the arena \
         created %d@."
        (Space.registers space) registers_created;
      exit 1
    end
  in
  Cmd.v
    (cmd_info "space-report"
       ~doc:
         "Report the shared-memory footprint of a protocol instance: every \
          register group with its width, the total shared bits, and the \
          simulator cross-check that exactly those registers get created.  \
          Exit codes: 0 report consistent, 1 analytic/measured mismatch.")
    Term.(const action $ n_arg $ algo_arg $ json_arg)

(* --- coin ------------------------------------------------------------- *)

let coin_cmd =
  let delta_arg =
    Arg.(
      value & opt positive_int 2 & info [ "delta" ] ~doc:"Barrier multiplier δ.")
  in
  let action n seed delta sched =
    let r = Bprc_harness.Run.coin_once ~delta ~sched ~n ~seed () in
    Fmt.pr "values     : %a@."
      (field_array (Fmt.fmt "%b"))
      (Array.of_list r.Bprc_harness.Run.values);
    Fmt.pr "agreed     : %b@." r.Bprc_harness.Run.agreed;
    Fmt.pr "walk steps : %d   overflows: %d@." r.Bprc_harness.Run.walk_steps
      r.Bprc_harness.Run.overflows
  in
  Cmd.v
    (cmd_info "coin" ~doc:"Flip one bounded weak shared coin (§3).")
    Term.(const action $ n_arg $ seed_arg $ delta_arg $ sched_arg)

(* --- experiment ------------------------------------------------------- *)

let experiment_cmd =
  let ids_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID" ~doc:"Experiment ids (E1..E16); all when empty.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Reduced trial counts.")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of a table.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write a machine-readable JSON report to $(docv) (schema in \
             EXPERIMENTS.md).")
  in
  let action ids quick csv json workers =
    let ids = if ids = [] then Bprc_harness.Experiments.ids else ids in
    (match
       List.find_opt
         (fun id -> Bprc_harness.Experiments.by_id id = None)
         ids
     with
    | Some id ->
      Fmt.epr "unknown experiment %s; valid ids: %s@." id
        (String.concat " " Bprc_harness.Experiments.ids);
      exit 2
    | None -> ());
    let pool = pool_of_workers workers in
    let t0 = Unix.gettimeofday () in
    let entries =
      List.map
        (fun id ->
          let fn = Option.get (Bprc_harness.Experiments.by_id id) in
          let t = Unix.gettimeofday () in
          let table = fn ~quick ~pool () in
          let wall_s = Unix.gettimeofday () -. t in
          if csv then print_string (Bprc_harness.Table.to_csv table)
          else Bprc_harness.Table.print table;
          { Bprc_harness.Report.table; wall_s })
        ids
    in
    match json with
    | None -> ()
    | Some path ->
      let report =
        {
          Bprc_harness.Report.date =
            Bprc_harness.Report.iso8601 (Unix.time ());
          workers = Bprc_harness.Pool.workers pool;
          quick;
          total_wall_s = Unix.gettimeofday () -. t0;
          entries;
        }
      in
      Bprc_harness.Report.write ~path report;
      Fmt.pr "wrote %s@." path
  in
  Cmd.v
    (cmd_info "experiment"
       ~doc:"Reproduce the paper's quantitative claims (see EXPERIMENTS.md).")
    Term.(
      const action $ ids_arg $ quick_arg $ csv_arg $ json_arg $ workers_opt_arg)

(* --- multi ------------------------------------------------------------ *)

let multi_cmd =
  let width_arg =
    Arg.(
      value
      & opt (int_in ~lo:1 ~hi:30 ~expected:"an integer in [1, 30]") 8
      & info [ "width" ] ~docv:"BITS" ~doc:"Bit width of the domain (1 to 30).")
  in
  let action n seed width =
    let sim =
      Bprc_runtime.Sim.create ~seed ~n
        ~adversary:(Bprc_runtime.Adversary.random ()) ()
    in
    let module M = Bprc_core.Multivalued.Make ((val Bprc_runtime.Sim.runtime sim)) in
    let t = M.create ~width () in
    let rng = Bprc_rng.Splitmix.create ~seed in
    let inputs =
      Array.init n (fun _ -> Bprc_rng.Splitmix.int rng (1 lsl width))
    in
    let handles =
      Array.init n (fun i ->
          Bprc_runtime.Sim.spawn sim (fun () -> M.run t ~input:inputs.(i)))
    in
    (match Bprc_runtime.Sim.run sim with
    | Bprc_runtime.Sim.Completed -> ()
    | Bprc_runtime.Sim.Hit_step_limit ->
      Fmt.epr "step limit hit@.";
      exit 1);
    Fmt.pr "inputs    : %a@." (field_array Fmt.int) inputs;
    Fmt.pr "decisions : %a@."
      (field_array Fmt.(option ~none:(any "?") int))
      (Array.map Bprc_runtime.Sim.result handles)
  in
  Cmd.v
    (cmd_info "multi" ~doc:"Multi-valued consensus (the paper's extension).")
    Term.(const action $ n_arg $ seed_arg $ width_arg)

(* --- trace ------------------------------------------------------------ *)

(* Canonical digest of a full trace: every event rendered to a fixed
   textual form, MD5-hashed.  Pinned by the golden determinism cram
   test — any change to the simulator that perturbs scheduling, flip
   draws, or event recording changes this value. *)
let trace_digest tr =
  let buf = Buffer.create 4096 in
  Bprc_runtime.Trace.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%d|%d|%d|%s|%s\n" e.Bprc_runtime.Trace.time e.pid
           e.reg_id e.reg_name
           (match e.kind with
           | Bprc_runtime.Trace.Read -> "R"
           | Bprc_runtime.Trace.Write -> "W"
           | Bprc_runtime.Trace.Flip b -> if b then "F1" else "F0"
           | Bprc_runtime.Trace.Step -> "S"
           | Bprc_runtime.Trace.Note s -> "N:" ^ s)))
    tr;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let trace_cmd =
  let steps_arg =
    Arg.(
      value & opt positive_int 400 & info [ "steps" ] ~doc:"Steps to simulate.")
  in
  let digest_arg =
    Arg.(
      value & flag
      & info [ "digest" ]
          ~doc:
            "Print an MD5 digest of the full event stream instead of the \
             access statistics (golden determinism regression).")
  in
  let action n seed sched steps digest =
    let sim =
      Bprc_runtime.Sim.create ~seed ~max_steps:steps ~record_trace:true ~n
        ~adversary:(Bprc_harness.Run.plain_adversary sched) ()
    in
    ignore
      (Bprc_harness.Run.consensus_on sim
         ~protocol:
           (Bprc_harness.Run.protocol
              (Bprc_harness.Run.Ads Bprc_core.Ads89.Shared_walk))
         ~sched ~max_steps:steps
         ~inputs:
           (Bprc_harness.Run.inputs_of_pattern Bprc_harness.Run.Split ~n ~seed)
         ());
    match Bprc_runtime.Sim.trace sim with
    | None -> Fmt.epr "no trace recorded@."
    | Some tr ->
      if digest then
        Fmt.pr "%d events  md5 %s@." (Bprc_runtime.Trace.length tr)
          (trace_digest tr)
      else
        Fmt.pr "%a@." Bprc_runtime.Trace_stats.pp
          (Bprc_runtime.Trace_stats.analyze tr ~n)
  in
  Cmd.v
    (cmd_info "trace"
       ~doc:"Run a consensus prefix with trace recording and print access              statistics.")
    Term.(const action $ n_arg $ seed_arg $ sched_arg $ steps_arg $ digest_arg)

(* --- hunt ------------------------------------------------------------- *)

(* Exit codes (documented in README "Exit codes"): 0 = all properties
   held, 1 = a property violation was found/reproduced, 124 = the
   wall-clock budget ran out first. *)
let exit_ok = 0
let exit_violation = 1
let exit_budget = 124

module Json = Bprc_util.Json
module Explorer = Bprc_check.Explorer
module Scenario = Bprc_check.Scenario
module Script = Bprc_check.Script
module Witness = Bprc_check.Witness

(* Report a usage error found after parsing, and exit 2. *)
let usage_error fmt = Fmt.kstr (fun msg -> Fmt.epr "%s@." msg; exit 2) fmt

(* The report of [bprc replay] and [bprc check --replay]: [noun] names
   the replayed file ("script" or "witness"), [head] leads the JSON
   summary, [banner] prints the human header, and [expected] is the
   saved schedule the [outcome] and [clock] of its replay are compared
   with. *)
let replay_report ~json ~noun ~head ~banner ~(expected : Explorer.witness)
    ~clock outcome =
  let summary oc fields =
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              (head @ (("outcome", Json.Str oc) :: ("clock", Json.Int clock)
                       :: fields))))
  in
  if not json then banner ();
  match (outcome : Explorer.replay_outcome) with
  | Fail f ->
    let bit_identical = clock = expected.clock && f = expected.failure in
    if not json then begin
      Fmt.pr "failure  : %s@." f;
      Fmt.pr "expected : %s@." expected.failure;
      Fmt.pr "clock    : %d (%s: %d)%s@." clock noun expected.clock
        (if bit_identical then "  [bit-identical]" else "")
    end;
    summary "reproduced"
      [ ("failure", Json.Str f); ("bit_identical", Json.Bool bit_identical) ];
    exit exit_violation
  | Pass ->
    if not json then
      Fmt.pr "failure  : none reproduced (%s expected: %s)@." noun
        expected.failure;
    summary "clean" [];
    exit exit_ok
  | Cutoff ->
    if not json then Fmt.pr "failure  : step bound hit before completion@.";
    summary "cutoff" [];
    exit exit_budget

let scenario_arg =
  let scenario_conv =
    Arg.conv
      ( (fun s ->
          match Scenario.find s with
          | Some sc -> Ok sc
          | None ->
            Error
              (`Msg
                 (Printf.sprintf "unknown scenario %s (valid: %s)" s
                    (String.concat ", " Scenario.names)))),
        fun ppf (s : Scenario.t) -> Fmt.string ppf s.name )
  in
  Arg.(
    value
    & opt scenario_conv Scenario.consensus
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf
             "Hunt scenario: %s.  See DESIGN.md \"Fault model\"."
             (String.concat ", " Scenario.names)))

let hunt_cmd =
  let trials_arg =
    Arg.(
      value
      & opt (int_in ~lo:0 ~hi:max_int ~expected:"a non-negative integer") 1000
      & info [ "trials" ] ~docv:"N" ~doc:"Fault-plan trials to attempt.")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some positive_seconds) None
      & info [ "budget-s" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget; exit 124 when it runs out first.")
  in
  let out_arg =
    Arg.(
      value
      & opt string "hunt-failure.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the shrunk counterexample script.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit a machine-readable JSON summary on stdout.")
  in
  let action scenario trials seed n budget_s out json workers =
    let pool = pool_of_workers workers in
    let map f idxs = Bprc_harness.Pool.map_list pool f idxs in
    (* Batch sizing follows the pool width: each budget check costs one
       barrier, so wider pools hunt in proportionally larger batches to
       keep every domain busy between checks.  Outcomes stay
       batch-independent (lowest failing trial index wins). *)
    let batch = max 64 (16 * Bprc_harness.Pool.workers pool) in
    let outcome =
      Bprc_check.Hunt.run ?budget_s ~batch ~map ~scenario ~trials ~seed ~n ()
    in
    let summary fields =
      if json then
        print_endline
          (Json.to_string
             (Json.Obj
                (("scenario", Json.Str scenario.name)
                 :: ("seed", Json.Int seed) :: fields)))
    in
    match outcome with
    | No_failure { trials_run } ->
      if not json then
        Fmt.pr "hunt: %d trials of %s clean (seed %d)@." trials_run
          scenario.name seed;
      summary
        [
          ("outcome", Json.Str "no_failure");
          ("trials_run", Json.Int trials_run);
        ];
      exit exit_ok
    | Budget_exhausted { trials_run } ->
      if not json then
        Fmt.pr "hunt: budget exhausted after %d clean trials@." trials_run;
      summary
        [
          ("outcome", Json.Str "budget_exhausted");
          ("trials_run", Json.Int trials_run);
        ];
      exit exit_budget
    | Found { script; shrunk; trial; replay_verified } ->
      Script.save ~path:out shrunk;
      let w = script.schedule and s = shrunk.schedule in
      if not json then begin
        Fmt.pr "hunt: FAILURE at trial %d: %s@." trial w.failure;
        Fmt.pr "  plan    : %a@." Bprc_faults.Fault_plan.pp shrunk.header.plan;
        Fmt.pr "  shrunk  : %d->%d faults, %d->%d choices, %d->%d flips@."
          (List.length script.header.plan)
          (List.length shrunk.header.plan)
          (List.length w.choices) (List.length s.choices)
          (List.length w.flips) (List.length s.flips);
        Fmt.pr "  replay  : %s@."
          (if replay_verified then "bit-identical"
           else "NOT bit-identical (bug in the recorder?)");
        Fmt.pr "  script  : %s@." out;
        Fmt.pr "  repro   : bprc replay %s@." out
      end;
      summary
        [
          ("outcome", Json.Str "failure");
          ("trial", Json.Int trial);
          ("failure", Json.Str s.failure);
          ("script", Json.Str out);
          ("replay_verified", Json.Bool replay_verified);
          ("repro", Json.Str ("bprc replay " ^ out));
        ];
      exit exit_violation
  in
  Cmd.v
    (cmd_info "hunt"
       ~doc:
         "Fuzz a scenario with random fault plans; on failure, write a \
          shrunk replayable counterexample script.  Exit codes: 0 clean, 1 \
          failure found, 124 budget exhausted.")
    Term.(
      const action $ scenario_arg $ trials_arg $ seed_arg $ n_arg $ budget_arg
      $ out_arg $ json_arg $ workers_opt_arg)

(* --- replay ----------------------------------------------------------- *)

let replay_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCRIPT" ~doc:"Hunt script (JSON) to re-execute.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit a machine-readable JSON summary on stdout.")
  in
  let action file json =
    let s =
      match Script.load ~path:file with
      | Ok s -> s
      | Error e -> usage_error "replay: %s" e
    in
    let h = s.header in
    let scenario =
      match Scenario.find h.scenario with
      | Some scenario -> scenario
      | None ->
        usage_error "replay: script names unknown scenario %S" h.scenario
    in
    let r = Bprc_check.Hunt.replay_script ~scenario s in
    replay_report ~json ~noun:"script"
      ~head:[ ("scenario", Json.Str h.scenario); ("script", Json.Str file) ]
      ~banner:(fun () ->
        Fmt.pr "scenario : %s  (n=%d seed=%d)@." h.scenario h.n h.seed;
        Fmt.pr "plan     : %a@." Bprc_faults.Fault_plan.pp h.plan)
      ~expected:s.schedule ~clock:r.clock
      (match r.failure with Some f -> Fail f | None -> Pass)
  in
  Cmd.v
    (cmd_info "replay"
       ~doc:
         "Re-execute a hunt counterexample script deterministically.  Exit \
          codes: 1 when the violation reproduces, 0 when the run is clean.")
    Term.(const action $ file_arg $ json_arg)

(* --- check ------------------------------------------------------------ *)

let check_cmd =
  let configs_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"CONFIG"
          ~doc:
            (Printf.sprintf
               "Configurations to explore (default: all).  Known: %s."
               (String.concat ", " (Bprc_check.Config.names ()))))
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the known configurations and exit.")
  in
  let max_runs_arg =
    Arg.(
      value & opt positive_int 200_000
      & info [ "max-runs" ] ~docv:"N"
          ~doc:"Bound on schedules explored per configuration.")
  in
  let max_steps_arg =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:"Per-run step bound (default: the configuration's own).")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some positive_seconds) None
      & info [ "budget-s" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget per configuration.")
  in
  let out_arg =
    Arg.(
      value
      & opt string "check-witness.json"
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Where to write the violating schedule, if one is found.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit a machine-readable JSON report on stdout.")
  in
  let no_shrink_arg =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Skip ddmin minimization of the witness.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Re-execute a saved check witness instead of exploring \
             (positional $(docv) arguments are ignored).")
  in
  let replay_action path json =
    let w =
      match Witness.load ~path with
      | Ok w -> w
      | Error e -> usage_error "check: %s" e
    in
    let h = w.header in
    let cfg =
      match Bprc_check.Config.find h.config with
      | Some cfg -> cfg
      | None ->
        usage_error "check: witness names unknown configuration %S" h.config
    in
    if h.n <> cfg.n then
      usage_error "check: witness has n=%d but configuration %s has n=%d" h.n
        cfg.name cfg.n;
    let outcome, clock =
      Bprc_check.Config.replay ~max_steps:h.max_steps cfg w.schedule
    in
    replay_report ~json ~noun:"witness"
      ~head:[ ("config", Json.Str cfg.name); ("witness", Json.Str path) ]
      ~banner:(fun () -> Fmt.pr "config   : %s  (n=%d)@." cfg.name cfg.n)
      ~expected:w.schedule ~clock outcome
  in
  let action configs list max_runs max_steps budget_s out json no_shrink
      replay_file =
    if list then begin
      List.iter
        (fun c ->
          Fmt.pr "%-16s %s@." c.Bprc_check.Config.name
            c.Bprc_check.Config.summary)
        Bprc_check.Config.all;
      exit exit_ok
    end;
    match replay_file with
    | Some path -> replay_action path json
    | None ->
      let cfgs =
        match configs with
        | [] -> Bprc_check.Config.all
        | names ->
          List.map
            (fun name ->
              match Bprc_check.Config.find name with
              | Some c -> c
              | None ->
                usage_error "check: unknown configuration %S (valid: %s)" name
                  (String.concat ", " (Bprc_check.Config.names ())))
            names
      in
      let results =
        (* Stop exploring further configurations at the first violation,
           mirroring hunt's stop-at-first-failure. *)
        let rec go acc = function
          | [] -> List.rev acc
          | cfg :: rest ->
            let stats =
              Bprc_check.Config.run ~max_runs ?max_steps ?budget_s
                ~shrink:(not no_shrink) cfg
            in
            if not json then begin
              match stats.Bprc_check.Explorer.violation with
              | None ->
                Fmt.pr "check: %-16s runs=%d pruned=%d cutoff=%d %s@."
                  cfg.Bprc_check.Config.name stats.Bprc_check.Explorer.runs
                  stats.Bprc_check.Explorer.pruned
                  stats.Bprc_check.Explorer.step_limited
                  (if stats.Bprc_check.Explorer.exhausted then
                     "exhausted: clean"
                   else "bound hit: clean so far")
              | Some w ->
                Fmt.pr "check: %-16s FAILURE after %d runs: %s@."
                  cfg.Bprc_check.Config.name stats.Bprc_check.Explorer.runs
                  w.Bprc_check.Explorer.failure
            end;
            if stats.Bprc_check.Explorer.violation <> None then
              List.rev ((cfg, stats) :: acc)
            else go ((cfg, stats) :: acc) rest
        in
        go [] cfgs
      in
      let found =
        List.find_opt
          (fun (_, s) -> s.Bprc_check.Explorer.violation <> None)
          results
      in
      (match found with
      | Some (cfg, { Bprc_check.Explorer.violation = Some w; _ }) ->
        Witness.save ~path:out
          {
            header =
              {
                config = cfg.name;
                n = cfg.n;
                max_steps = Option.value max_steps ~default:cfg.max_steps;
              };
            schedule = w;
          };
        if not json then begin
          Fmt.pr "  schedule: %d choices, %d flips (ddmin-%s)@."
            (List.length w.Bprc_check.Explorer.choices)
            (List.length w.Bprc_check.Explorer.flips)
            (if no_shrink then "skipped" else "minimized");
          Fmt.pr "  witness : %s@." out;
          Fmt.pr "  repro   : bprc check --replay %s@." out
        end
      | _ -> ());
      let all_exhausted =
        List.for_all
          (fun (_, s) -> s.Bprc_check.Explorer.exhausted)
          results
      in
      let outcome =
        if found <> None then "violation"
        else if all_exhausted then "clean"
        else "bound_hit"
      in
      if json then begin
        let config_json (cfg, s) =
          Bprc_util.Json.Obj
            (("name", Bprc_util.Json.Str cfg.Bprc_check.Config.name)
             :: ("runs", Bprc_util.Json.Int s.Bprc_check.Explorer.runs)
             :: ("pruned", Bprc_util.Json.Int s.Bprc_check.Explorer.pruned)
             :: ("step_limited",
                 Bprc_util.Json.Int s.Bprc_check.Explorer.step_limited)
             :: ("exhausted",
                 Bprc_util.Json.Bool s.Bprc_check.Explorer.exhausted)
             ::
             (match s.Bprc_check.Explorer.violation with
             | None -> []
             | Some w ->
               [
                 ("failure", Bprc_util.Json.Str w.Bprc_check.Explorer.failure);
                 ("clock", Bprc_util.Json.Int w.Bprc_check.Explorer.clock);
                 ( "choices",
                   Bprc_util.Json.Int
                     (List.length w.Bprc_check.Explorer.choices) );
                 ( "flips",
                   Bprc_util.Json.Int
                     (List.length w.Bprc_check.Explorer.flips) );
                 ("witness", Bprc_util.Json.Str out);
               ]))
        in
        print_endline
          (Bprc_util.Json.to_string
             (Bprc_util.Json.Obj
                [
                  ("kind", Bprc_util.Json.Str "bprc-check-report");
                  ("version", Bprc_util.Json.Int 2);
                  ("outcome", Bprc_util.Json.Str outcome);
                  ( "configs",
                    Bprc_util.Json.Arr (List.map config_json results) );
                ]))
      end;
      exit
        (match outcome with
        | "violation" -> exit_violation
        | "clean" -> exit_ok
        | _ -> exit_budget)
  in
  Cmd.v
    (cmd_info "check"
       ~doc:
         "Exhaustively explore the schedules of small configurations \
          (linearizability + P1-P3 + consensus spec on every completed \
          run); on violation, write a ddmin-minimized replayable witness \
          schedule.  Exit codes: 0 every configuration exhausted clean, \
          1 violation found, 124 exploration bound hit first.")
    Term.(
      const action $ configs_arg $ list_arg $ max_runs_arg $ max_steps_arg
      $ budget_arg $ out_arg $ json_arg $ no_shrink_arg $ replay_arg)

(* --- serve-bench ------------------------------------------------------- *)

(* Canonical digest of a decided stream: the pure per-instance fields
   (ticket, decisions, completion, steps, rounds, spec verdict) rendered
   to a fixed textual form and MD5-hashed.  Wall-clock fields (latency,
   shard) are excluded on purpose, so the digest is identical across
   worker counts, across deterministic/throughput modes, and across
   machines — the cram golden and the CI invariance diff both pin it. *)
let decided_digest_add buf (d : Bprc_service.Engine.decided) =
  Buffer.add_string buf (string_of_int d.Bprc_service.Engine.ticket);
  Buffer.add_char buf '|';
  Array.iter
    (fun v ->
      Buffer.add_char buf
        (match v with None -> '?' | Some true -> '1' | Some false -> '0'))
    d.Bprc_service.Engine.decisions;
  Buffer.add_string buf
    (Printf.sprintf "|%b|%d|%d|%s\n" d.Bprc_service.Engine.completed
       d.Bprc_service.Engine.steps d.Bprc_service.Engine.rounds
       (match d.Bprc_service.Engine.spec_check with
       | Ok () -> "ok"
       | Error e -> e))

let serve_bench_cmd =
  let instances_arg =
    Arg.(
      value & opt int 1000
      & info [ "instances" ] ~docv:"K"
          ~doc:"Total consensus instances to submit and decide.")
  in
  let in_flight_arg =
    Arg.(
      value & opt int 256
      & info [ "in-flight" ] ~docv:"M"
          ~doc:
            "In-flight cap: admitted-but-undelivered instances beyond \
             which submission is refused (backpressure window).")
  in
  let batch_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "batch" ] ~docv:"B"
          ~doc:"Instances dispatched per pool round (default 16/worker).")
  in
  let mode_conv =
    let parse = function
      | "det" | "deterministic" -> Ok Bprc_service.Engine.Deterministic
      | "thr" | "throughput" -> Ok Bprc_service.Engine.Throughput
      | s -> Error (`Msg ("unknown mode " ^ s))
    in
    Arg.conv
      (parse, fun ppf m -> Fmt.string ppf (Bprc_service.Engine.mode_name m))
  in
  let mode_arg =
    Arg.(
      value
      & opt mode_conv Bprc_service.Engine.Throughput
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "det (reproducible decided stream, no wall-clock fields) or \
             thr (p50/p99 latency pipeline on).  Decisions are identical \
             either way.")
  in
  let registers_conv =
    let parse = function
      | "atomic" -> Ok []
      | "regular" ->
        Ok
          [
            Bprc_faults.Fault_plan.Weaken
              { index = -1; semantics = Bprc_faults.Fault_plan.Regular };
          ]
      | "safe" ->
        Ok
          [
            Bprc_faults.Fault_plan.Weaken
              { index = -1; semantics = Bprc_faults.Fault_plan.Safe };
          ]
      | s -> Error (`Msg ("unknown register strength " ^ s))
    in
    Arg.conv (parse, fun ppf (_ : Bprc_faults.Fault_plan.t) -> Fmt.string ppf "-")
  in
  let registers_arg =
    Arg.(
      value & opt registers_conv []
      & info [ "registers" ] ~docv:"STRENGTH"
          ~doc:
            "Register strength every instance runs under: atomic \
             (default), regular, safe.  Weakened strengths ablate \
             robustness; spec violations then exit 1 with a count.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit a machine-readable JSON report on stdout.")
  in
  let action n seed algo sched pattern instances cap batch mode registers
      json workers =
    require_positive ~flag:"--instances" instances;
    require_positive ~flag:"--in-flight" cap;
    Option.iter (require_positive ~flag:"--batch") batch;
    let pool = pool_of_workers workers in
    let eng =
      Bprc_service.Engine.create ~mode ~seed ~in_flight_cap:cap ?batch
        ~pool ()
    in
    let spec =
      Bprc_service.Workload.spec ~algo ~pattern ~sched ~faults:registers ~n ()
    in
    let digest_buf = Buffer.create 4096 in
    let consume d = decided_digest_add digest_buf d in
    let t0 = Unix.gettimeofday () in
    (* Closed-loop driver: keep the window full, deliver when refused. *)
    let rec feed remaining =
      if remaining > 0 then
        match Bprc_service.Engine.submit eng spec with
        | `Accepted _ -> feed (remaining - 1)
        | `Overloaded -> (
          match Bprc_service.Engine.next_decided eng with
          | Some d ->
            consume d;
            feed remaining
          | None -> assert false (* window full implies work in flight *))
    in
    feed instances;
    List.iter consume (Bprc_service.Engine.drain eng);
    let wall_s = Unix.gettimeofday () -. t0 in
    Bprc_service.Engine.shutdown eng;
    let st = Bprc_service.Engine.stats eng in
    let digest = Digest.to_hex (Digest.string (Buffer.contents digest_buf)) in
    let mode_s = Bprc_service.Engine.mode_name mode in
    let throughput_mode = mode = Bprc_service.Engine.Throughput in
    let open Bprc_service.Engine in
    if json then begin
      let num v = if Float.is_nan v then Bprc_util.Json.Null else Bprc_util.Json.Float v in
      print_endline
        (Bprc_util.Json.to_string
           (Bprc_util.Json.Obj
              [
                ("kind", Bprc_util.Json.Str "bprc-serve-report");
                ("version", Bprc_util.Json.Int 1);
                ("mode", Bprc_util.Json.Str mode_s);
                ( "workers",
                  Bprc_util.Json.Int (Bprc_harness.Pool.workers pool) );
                ("n", Bprc_util.Json.Int n);
                ("algo", Bprc_util.Json.Str (Bprc_harness.Run.algo_name algo));
                ( "sched",
                  Bprc_util.Json.Str (Bprc_harness.Run.sched_name sched) );
                ("seed", Bprc_util.Json.Int seed);
                ("instances", Bprc_util.Json.Int instances);
                ("in_flight_cap", Bprc_util.Json.Int cap);
                ("submitted", Bprc_util.Json.Int st.submitted);
                ("overloaded", Bprc_util.Json.Int st.overloaded);
                ("decided", Bprc_util.Json.Int st.decided);
                ("delivered", Bprc_util.Json.Int st.delivered);
                ("violations", Bprc_util.Json.Int st.violations);
                ("incomplete", Bprc_util.Json.Int st.incomplete);
                ("max_in_flight", Bprc_util.Json.Int st.max_in_flight);
                ("wall_s", Bprc_util.Json.Float wall_s);
                ("busy_s", Bprc_util.Json.Float st.busy_s);
                ("decisions_per_sec", num st.decisions_per_sec);
                ("minor_words_per_instance", num st.minor_words_per_instance);
                ("resumes_per_instance", num st.resumes_per_instance);
                ("lat_p50_s", num st.lat_p50_s);
                ("lat_p99_s", num st.lat_p99_s);
                ( "rounds_hist",
                  Bprc_util.Json.Arr
                    (List.map
                       (fun (r, c) ->
                         Bprc_util.Json.Obj
                           [
                             ("rounds", Bprc_util.Json.Int r);
                             ("count", Bprc_util.Json.Int c);
                           ])
                       st.rounds_hist) );
                ("decisions_digest", Bprc_util.Json.Str digest);
              ]))
    end
    else begin
      Fmt.pr "mode        : %s@." mode_s;
      Fmt.pr "workers     : %d@." (Bprc_harness.Pool.workers pool);
      Fmt.pr "instance    : n=%d %s, %s scheduler@." n
        (Bprc_harness.Run.algo_name algo)
        (Bprc_harness.Run.sched_name sched);
      Fmt.pr "submitted   : %d  (backpressure refusals: %d)@." st.submitted
        st.overloaded;
      Fmt.pr "decided     : %d  (violations: %d, incomplete: %d)@." st.decided
        st.violations st.incomplete;
      Fmt.pr "in-flight   : cap %d, high-water %d@." cap
        st.max_in_flight;
      (* Deterministic mode keeps timing out of the human output so the
         transcript itself is reproducible (the JSON report still
         carries wall_s/busy_s for whoever wants them). *)
      if throughput_mode then begin
        Fmt.pr "throughput  : %.0f decisions/s  (wall %.2fs, busy %.2fs)@."
          (float_of_int st.decided /. wall_s)
          wall_s st.busy_s;
        Fmt.pr "latency     : p50 %.4fs  p99 %.4fs@." st.lat_p50_s
          st.lat_p99_s
      end;
      Fmt.pr "rounds      : %s@."
        (String.concat " "
           (List.map
              (fun (r, c) -> Printf.sprintf "%dx%d" c r)
              st.rounds_hist));
      Fmt.pr "resumes     : %.1f per instance@." st.resumes_per_instance;
      Fmt.pr "digest      : %s@." digest
    end;
    exit (if st.violations > 0 then exit_violation else exit_ok)
  in
  Cmd.v
    (cmd_info "serve-bench"
       ~doc:
         "Drive the long-lived decision engine with a sustained stream of \
          consensus instances over a domain pool: bounded in-flight window \
          with backpressure, per-shard simulator-arena reuse, streaming \
          decisions/sec + p50/p99 latency stats.  Exit codes: 0 all decided \
          streams spec-clean, 1 spec violations observed.")
    Term.(
      const action $ n_arg $ seed_arg $ algo_arg $ sched_arg $ pattern_arg
      $ instances_arg $ in_flight_arg $ batch_arg $ mode_arg $ registers_arg
      $ json_arg $ workers_opt_arg)

let main =
  Cmd.group
    (cmd_info "bprc" ~version:"1.0.0"
       ~doc:
         "Bounded polynomial randomized consensus (Attiya-Dolev-Shavit, PODC \
          1989): simulator, baselines, experiment suite, and fault-injection \
          hunting.")
    [ run_cmd; coin_cmd; experiment_cmd; multi_cmd; trace_cmd; hunt_cmd;
      replay_cmd; check_cmd; serve_bench_cmd; space_report_cmd ]

(* A command-line parse error is a usage error like the ones above
   (exit 2): cmdliner's own 124 would collide with the "bound hit"
   outcome of [check] and [hunt]. *)
let () =
  exit
    (match Cmd.eval_value main with
    | Ok (`Ok () | `Version | `Help) -> Cmd.Exit.ok
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
