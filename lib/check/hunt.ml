open Bprc_runtime
module Inject = Bprc_faults.Inject
module Splitmix = Bprc_rng.Splitmix
module Vec = Bprc_util.Vec

type found = {
  script : Script.t;
  shrunk : Script.t;
  trial : int;
  replay_verified : bool;
}

type outcome =
  | No_failure of { trials_run : int }
  | Found of found
  | Budget_exhausted of { trials_run : int }

type mode = Record | Replay of { choices : int list; flips : bool list }

type result = {
  failure : string option;
  clock : int;
  choices : int list;
  flips : bool list;
}

(* A recording run logs each choice as a position in the runnable
   array, the form [Adversary.scripted] replays (pid sets then match
   positionally, not by value), and every coin flip in draw order. *)
let exec (scenario : Config.scenario) ~n =
  let max_steps = scenario.max_steps in
  let program = scenario.program ~n in
  fun ~seed ~plan ~mode ->
    let choices = Vec.create () and flips = Vec.create () in
    let random = Adversary.random () in
    let recorder =
      Adversary.make ~name:("recorded:" ^ random.name) (fun ctx ->
          let pid = random.choose ctx in
          let idx = ref 0 in
          Array.iteri (fun i p -> if p = pid then idx := i) ctx.runnable;
          Vec.push choices !idx;
          pid)
    in
    let sim = Sim.create ~seed ~max_steps ~n ~adversary:recorder () in
    (match mode with
    | Record -> Sim.set_flip_observer sim (fun ~pid:_ b -> Vec.push flips b)
    | Replay { choices; flips } ->
      let fallback = Splitmix.create ~seed:(seed lxor 0x5eed) in
      Explorer.scripted sim ~choices ~flips ~fallback:random
        ~flip_fallback:(fun () -> Splitmix.bool fallback));
    let check = program ~plan sim in
    let completed =
      Inject.drive sim ~driver:(Inject.driver ~n plan) ~max_steps
    in
    let failure =
      match check () with
      | Error e -> Some (scenario.label ^ ": " ^ e)
      | Ok () ->
        if completed then None
        else Some (scenario.label ^ ": " ^ scenario.exhausted)
    in
    {
      failure;
      clock = Sim.clock sim;
      choices = Vec.to_list choices;
      flips = Vec.to_list flips;
    }

let sequential_map f idxs = List.map f idxs

(* Trial [i] is a pure function of (hunt seed, i): plan and simulator
   seed come from the forked stream [Splitmix.fork root i], never from
   scheduling — so outcomes are identical at any worker count. *)
let trial_inputs ~(scenario : Config.scenario) ~seed ~n i =
  let rng = Splitmix.fork (Splitmix.create ~seed) i in
  let plan = scenario.gen_plan ~n ~rng in
  let sim_seed = Splitmix.bits30 rng in
  (plan, sim_seed)

let replay_script ~scenario (s : Script.t) =
  let h = s.header and w = s.schedule in
  exec scenario ~n:h.n ~seed:h.seed ~plan:h.plan
    ~mode:(Replay { choices = w.choices; flips = w.flips })

(* Three passes — fault plan, then adversary choices, then coin flips —
   each holding the others fixed and validating every candidate by a
   full replay.  The result is never longer than the input and still
   fails, though not necessarily with the original string: the final
   replay's failure and clock are the ones stored. *)
let shrink ~scenario (s : Script.t) =
  let h = s.header and w = s.schedule in
  let run = exec scenario ~n:h.n in
  let exec plan choices flips =
    run ~seed:h.seed ~plan ~mode:(Replay { choices; flips })
  in
  let fails plan choices flips = (exec plan choices flips).failure <> None in
  let plan = Shrink.ddmin ~test:(fun p -> fails p w.choices w.flips) h.plan in
  let choices =
    Shrink.sequence ~test:(fun c -> fails plan c w.flips) w.choices
  in
  let flips = Shrink.sequence ~test:(fun f -> fails plan choices f) w.flips in
  let r = exec plan choices flips in
  {
    Script.header = { h with plan };
    schedule =
      {
        choices;
        flips;
        failure = Option.value r.failure ~default:w.failure;
        clock = r.clock;
      };
  }

let run ?budget_s ?(batch = 64) ?(map = sequential_map)
    ~(scenario : Config.scenario) ~trials ~seed ~n () =
  if trials < 0 then invalid_arg "Hunt.run: negative trial count";
  if batch <= 0 then invalid_arg "Hunt.run: batch must be positive";
  let exec = exec scenario ~n in
  let t0 = Unix.gettimeofday () in
  let out_of_budget () =
    match budget_s with
    | Some b -> Unix.gettimeofday () -. t0 >= b
    | None -> false
  in
  let probe i =
    let plan, sim_seed = trial_inputs ~scenario ~seed ~n i in
    (exec ~seed:sim_seed ~plan ~mode:Record).failure
  in
  let rec go start =
    if start >= trials then No_failure { trials_run = trials }
    else if out_of_budget () then Budget_exhausted { trials_run = start }
    else begin
      let stop = min trials (start + batch) in
      let idxs = List.init (stop - start) (fun j -> start + j) in
      let results = map probe idxs in
      (* [map] preserves order, so the first hit is the lowest failing
         trial index — the same winner at any worker count. *)
      match
        List.find_opt (fun (_, r) -> r <> None) (List.combine idxs results)
      with
      | None -> go stop
      | Some (i, _) ->
        let plan, sim_seed = trial_inputs ~scenario ~seed ~n i in
        let r = exec ~seed:sim_seed ~plan ~mode:Record in
        let failure =
          match r.failure with
          | Some f -> f
          | None -> assert false (* exec is pure; the probe failed *)
        in
        let script =
          {
            Script.header =
              { scenario = scenario.name; n; seed = sim_seed; trial = i; plan };
            schedule =
              {
                choices = r.choices;
                flips = r.flips;
                failure;
                clock = r.clock;
              };
          }
        in
        let rv = replay_script ~scenario script in
        let replay_verified = rv.failure = Some failure && rv.clock = r.clock in
        let shrunk = shrink ~scenario script in
        Found { script; shrunk; trial = i; replay_verified }
    end
  in
  go 0
