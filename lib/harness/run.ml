open Bprc_runtime

type sched =
  | Random_sched
  | Round_robin_sched
  | Bursty_sched of int
  | Anti_coin_sched
  | Osc_coin_sched

let schedulers =
  { Bprc_util.Axis.noun = "scheduler";
    tokens =
      [ ("random", Random_sched);
        ("round-robin", Round_robin_sched); ("rr", Round_robin_sched);
        ("anti-coin", Anti_coin_sched); ("split", Osc_coin_sched) ] }

let sched_of_token s =
  if String.starts_with ~prefix:"bursty:" s then
    match int_of_string_opt (String.sub s 7 (String.length s - 7)) with
    | Some b when b > 0 -> Ok (Bursty_sched b)
    | _ -> Error "bursty:<positive burst> expected"
  else Bprc_util.Axis.parse schedulers s

let sched_token = function
  | Bursty_sched b -> Printf.sprintf "bursty:%d" b
  | s -> Bprc_util.Axis.token schedulers s

let sched_name = function
  | Bursty_sched b -> Printf.sprintf "bursty-%d" b
  | Anti_coin_sched -> "anti-coin (stretch)"
  | Osc_coin_sched -> "anti-coin (split)"
  | (Random_sched | Round_robin_sched) as s -> sched_token s

(* The first runnable pid satisfying [p]. *)
let rec find_from runnable p i =
  if i >= Array.length runnable then None
  else
    let pid = Array.unsafe_get runnable i in
    if p pid then Some pid else find_from runnable p (i + 1)

let find_runnable (ctx : Adversary.ctx) p = find_from ctx.runnable p 0

(* Full-information walk-stretching adversary: publish pending flips
   that pull the published sum toward zero; otherwise let flip-less
   processes run (scan or draw a fresh flip); a process whose pending
   flip would push the sum outward is scheduled only when everyone
   runnable holds such a flip. *)
let stretch_adversary ~published_sum ~pending () =
  let fallback = Adversary.random () in
  let choose (ctx : Adversary.ctx) =
    let sum = published_sum () in
    let toward_zero pid =
      let d = pending pid in
      d <> 0 && ((sum > 0 && d < 0) || (sum < 0 && d > 0))
    in
    match find_runnable ctx toward_zero with
    | Some pid -> pid
    | None -> (
      match find_runnable ctx (fun pid -> pending pid = 0) with
      | Some pid -> pid
      | None -> fallback.Adversary.choose ctx)
  in
  Adversary.make ~name:"anti-coin-stretch" choose

(* Full-information disagreement-seeking adversary: drive the published
   sum across one barrier, dwell there long enough for some processes
   to observe and decide, then reverse and drive it across the other
   barrier for the remaining processes. *)
let oscillation_adversary ~n ~threshold ~published_sum ~pending () =
  let fallback = Adversary.random () in
  let regime = ref 1 in
  let dwell = ref 0 in
  let choose (ctx : Adversary.ctx) =
    let sum = published_sum () in
    if sum * !regime > threshold then begin
      incr dwell;
      if !dwell > 8 * n then begin
        regime := - !regime;
        dwell := 0
      end
    end;
    let crossed = sum * !regime > threshold in
    let reinforcing pid = pending pid * !regime > 0 in
    let clean pid = pending pid = 0 in
    let preference =
      if crossed then
        (* Let observers scan and decide while the sum sits past the
           barrier. *)
        match find_runnable ctx clean with
        | Some pid -> Some pid
        | None -> find_runnable ctx reinforcing
      else
        match find_runnable ctx reinforcing with
        | Some pid -> Some pid
        | None -> find_runnable ctx clean
    in
    match preference with
    | Some pid -> pid
    | None -> fallback.Adversary.choose ctx
  in
  Adversary.make ~name:"anti-coin-split" choose

let plain_adversary = function
  | Random_sched -> Adversary.random ()
  | Round_robin_sched -> Adversary.round_robin ()
  | Bursty_sched b -> Adversary.bursty ~burst:b ()
  | Anti_coin_sched | Osc_coin_sched ->
    (* Without the coin probes these degrade to random;
       [install_probe_adversary] installs the informed versions. *)
    Adversary.random ()

(* The two views the adaptive adversaries read, built only when one of
   them is installed. *)
let probes probe instance =
  ( (fun () -> Bprc_coin.Coin_probe.published_sum_at_front (probe instance)),
    fun pid -> Bprc_coin.Coin_probe.pending_at_front (probe instance) pid )

(* The adaptive adversaries probe the coin or protocol instance, which
   exists only after the sim: the sim starts with [plain_adversary
   sched], and these replace it once the instance is built. *)
let install_probe_adversary sim ~sched probe instance =
  match sched with
  | Anti_coin_sched ->
    let published_sum, pending = probes probe instance in
    Sim.set_adversary sim (stretch_adversary ~published_sum ~pending ())
  | Osc_coin_sched ->
    let published_sum, pending = probes probe instance in
    let threshold = (probe instance).Bprc_coin.Coin_probe.threshold in
    Sim.set_adversary sim
      (oscillation_adversary ~n:(Sim.n sim) ~threshold ~published_sum
         ~pending ())
  | Random_sched | Round_robin_sched | Bursty_sched _ -> ()

(* ------------------------------------------------------------------ *)

type coin_run = {
  values : bool list;
  agreed : bool;
  walk_steps : int;
  overflows : int;
  coin_completed : bool;
}

let coin_once ?(delta = 2) ?m ?(sched = Random_sched) ?(max_steps = 10_000_000)
    ~n ~seed () =
  let sim = Sim.create ~seed ~max_steps ~n ~adversary:(plain_adversary sched) () in
  let module C = Bprc_coin.Bounded_walk.Make ((val Sim.runtime sim)) in
  let coin = C.create ~delta ?m () in
  install_probe_adversary sim ~sched C.probe coin;
  let handles = Array.init n (fun _ -> Sim.spawn sim (fun () -> C.flip coin)) in
  let coin_completed = Sim.run sim = Sim.Completed in
  let values = Array.to_list handles |> List.filter_map Sim.result in
  let agreed =
    match values with
    | [] -> false
    | v :: rest -> List.for_all (Bool.equal v) rest
  in
  {
    values;
    agreed;
    walk_steps = C.total_walk_steps coin;
    overflows = C.overflows coin;
    coin_completed;
  }

(* ------------------------------------------------------------------ *)

type algo =
  | Ads of Bprc_core.Ads89.coin_mode
  | Ads_esnap of Bprc_core.Ads89.coin_mode
  | Ah

let algo_name = function
  | Ads Bprc_core.Ads89.Shared_walk -> "ADS89 (bounded shared coin)"
  | Ads Bprc_core.Ads89.Local_flips -> "local-coin (Abrahamson-class)"
  | Ads Bprc_core.Ads89.Oracle_shared -> "oracle coin (CIL-style)"
  | Ads_esnap Bprc_core.Ads89.Shared_walk -> "ADS89/esnap (bounded shared coin)"
  | Ads_esnap Bprc_core.Ads89.Local_flips -> "ADS89/esnap (local coin)"
  | Ads_esnap Bprc_core.Ads89.Oracle_shared -> "ADS89/esnap (oracle coin)"
  | Ah -> "AH88-style (unbounded strip)"

let algos =
  let open Bprc_core.Ads89 in
  { Bprc_util.Axis.noun = "algorithm";
    tokens =
      [ ("ads", Ads Shared_walk); ("ads89", Ads Shared_walk);
        ("local", Ads Local_flips); ("oracle", Ads Oracle_shared);
        ("esnap", Ads_esnap Shared_walk); ("ads-esnap", Ads_esnap Shared_walk);
        ("esnap-local", Ads_esnap Local_flips);
        ("esnap-oracle", Ads_esnap Oracle_shared);
        ("ah", Ah); ("ah88", Ah) ] }

(* Each arm is a closed function, so [protocol algo] allocates
   nothing. *)
let protocol :
    algo ->
    (module Runtime_intf.BATCHED) ->
    (module Bprc_core.Consensus_intf.S) = function
  | Ads _ -> fun (module R) -> (module Bprc_core.Ads89.Make_batched (R))
  | Ads_esnap _ ->
    (* The paper's protocol over the wait-free embedded snapshot: at
       large [n] the handshake's clean double-collect window shrinks
       like e^{-n} under ongoing writes, so the large-n bench family
       runs over [Embedded], whose scans borrow instead of starving
       (caveat: DESIGN.md note 8 — a corrupt strip reconstruction
       sticks more often over it, and some runs livelock or disagree). *)
    fun (module R) ->
      (module Bprc_core.Ads89.Make_over_snapshot
                (R)
                (Bprc_snapshot.Embedded.Make_batched (R)))
  | Ah -> fun (module R) -> (module Bprc_core.Ah88.Make_batched (R))

type pattern = Unanimous of bool | Split | Random_inputs

let patterns =
  { Bprc_util.Axis.noun = "input pattern";
    tokens =
      [ ("random", Random_inputs); ("split", Split);
        ("ones", Unanimous true); ("zeros", Unanimous false) ] }

let pattern_name = function
  | Unanimous v -> Printf.sprintf "unanimous %b" v
  | (Split | Random_inputs) as p -> Bprc_util.Axis.token patterns p

let inputs_of_pattern pattern ~n ~seed =
  match pattern with
  | Unanimous v -> Array.make n v
  | Split -> Array.init n (fun i -> i mod 2 = 0)
  | Random_inputs ->
    let r = Bprc_rng.Splitmix.create ~seed:(seed * 65537) in
    Array.init n (fun _ -> Bprc_rng.Splitmix.bool r)

type consensus_run = {
  completed : bool;
  steps : int;
  decisions : bool option array;
  max_round : int;
  register_bits : int;
  walk_steps : int;
  spec : (unit, string) result;
  space : Bprc_space.Space.t;
  registers_used : int;
  inconsistent_reconstructions : int;
}

(* One slot per constructor: the module does not depend on the coin
   mode, which goes to [create]. *)
let ads_slot =
  Sim.new_local (fun sim ->
      protocol (Ads Bprc_core.Ads89.Shared_walk) (Sim.batched sim))

let ads_esnap_slot =
  Sim.new_local (fun sim ->
      protocol (Ads_esnap Bprc_core.Ads89.Shared_walk) (Sim.batched sim))

let ah_slot = Sim.new_local (fun sim -> protocol Ah (Sim.batched sim))

let cached sim slot make rt =
  if rt == Sim.batched sim then Sim.local sim slot else make rt

let applied sim algo rt =
  cached sim
    (match algo with
    | Ads _ -> ads_slot
    | Ads_esnap _ -> ads_esnap_slot
    | Ah -> ah_slot)
    (protocol algo) rt

(* A decided result keeps its [n] decisions as the two shared boxes of
   [Ads89.decision], not as the per-process boxes [Sim.result] hands
   out: those become short-lived garbage, and a result holds one word
   per process. *)
let decision h =
  match Sim.result h with
  | Some v -> Bprc_core.Ads89.decision v
  | None -> None

(* The arena's two read-only unanimous vectors, all false and all true.
   Every complete run that keeps agreement is unanimous, and its result
   keeps no array of its own. *)
let unanimous_slot =
  Sim.new_local (fun sim ->
      let all v = Array.make (Sim.n sim) (Bprc_core.Ads89.decision v) in
      (all false, all true))

(* Did every process from [i] on decide [v]? *)
let rec all_decided handles v i =
  i >= Array.length handles
  || (match Sim.result handles.(i) with Some w -> w = v | None -> false)
     && all_decided handles v (i + 1)

let decisions sim handles =
  match Sim.result handles.(0) with
  | Some v when all_decided handles v 1 ->
    let no, yes = Sim.local sim unanimous_slot in
    if v then yes else no
  | _ -> Array.map decision handles

let consensus_on sim ~protocol ?(params = Bprc_core.Params.default)
    ?(coin_mode = Bprc_core.Ads89.Shared_walk) ?(oracle_seed = 0)
    ?(sched = Random_sched) ?(faults = []) ~max_steps ~inputs () =
  let n = Sim.n sim in
  let (module C : Bprc_core.Consensus_intf.S) =
    protocol (Bprc_faults.Inject.weaken_batched (Sim.batched sim) ~plan:faults)
  in
  let t = C.create ~params ~coin_mode ~oracle_seed () in
  install_probe_adversary sim ~sched C.coin_probe t;
  let handles =
    Array.init n (fun i -> Sim.spawn sim (fun () -> C.run t ~input:inputs.(i)))
  in
  let completed =
    Bprc_faults.Inject.drive sim
      ~driver:(Bprc_faults.Inject.driver ~n faults)
      ~max_steps
  in
  let decisions = decisions sim handles in
  let st = C.stats t in
  let space = C.space t in
  {
    completed;
    steps = Sim.clock sim;
    decisions;
    max_round = st.Bprc_core.Ads89.max_raw_round;
    register_bits = Bprc_space.Space.max_register_bits space;
    walk_steps = st.Bprc_core.Ads89.walk_steps;
    spec = Bprc_core.Spec.check ~inputs ~decisions;
    space;
    registers_used = Sim.registers_created sim;
    inconsistent_reconstructions =
      st.Bprc_core.Ads89.inconsistent_reconstructions;
  }

(* From this n up, a decision on a reused arena starts on an empty minor
   heap.  It allocates about 6.5n² words (n = 128: 109k, two fifths of
   OCaml's default 256k-word minor heap; 137k, or 8n², while the strip
   held a word per counter), so where a minor collection fell inside it
   depended only on what the decisions before it had allocated.  One
   that fell early promoted the n×n blocks and sent the rest of the
   run's stores into them through the write barrier: at n = 128, with
   word-wide strip rows, such runs took 7.5–10 ms against 5.4–6.6 ms
   for runs with none (2-vCPU Xeon VM).  At 137k words a decision, the
   collection point drifted slowly enough that whole stretches of runs
   were slow or fast together.  Emptying the heap first makes every run
   start alike. *)
let empty_minor_heap_from = 64

let default_max_steps = 20_000_000

let consensus_once ?sim:reuse ?(params = Bprc_core.Params.default)
    ?(max_steps = default_max_steps) ?(sched = Random_sched) ?(faults = [])
    ~algo ~pattern ~n ~seed () =
  let inputs = inputs_of_pattern pattern ~n ~seed in
  let adversary = plain_adversary sched in
  let sim =
    match reuse with
    | Some sim ->
      (* Arena reuse: [Sim.reset] rewinds to the state a fresh [create]
         would produce (and adopts ownership on this domain), so the
         run is bit-identical to the fresh-simulator path — the service
         engine's shards lean on this to amortize one arena over
         thousands of instances.  The arena's creation-time shape must
         match: same [n], and a creation-time step bound of at least
         [max_steps] (the fault driver enforces the requested bound
         itself). *)
      if Sim.n sim <> n then
        invalid_arg
          (Printf.sprintf "Run.consensus_once: reused sim has n=%d, want n=%d"
             (Sim.n sim) n);
      if Sim.max_steps sim < max_steps then
        invalid_arg
          (Printf.sprintf
             "Run.consensus_once: reused sim caps steps at %d, want %d"
             (Sim.max_steps sim) max_steps);
      Sim.reset ~seed ~adversary sim;
      if n >= empty_minor_heap_from then Gc.minor ();
      sim
    | None -> Sim.create ~seed ~max_steps ~n ~adversary ()
  in
  let coin_mode =
    match algo with
    | Ads mode | Ads_esnap mode -> mode
    | Ah -> Bprc_core.Ads89.Shared_walk
  in
  (* One closure: the partial application [applied sim algo] costs a
     word more per run. *)
  consensus_on sim
    ~protocol:(fun rt -> applied sim algo rt)
    ~params ~coin_mode
    ~oracle_seed:seed ~sched ~faults ~max_steps ~inputs ()

type footprint = {
  space : Bprc_space.Space.t;
  state_bits : int;
  registers_created : int;
}

(* Creating an instance allocates every shared register it will ever
   use, so the footprint needs an arena but not a single step. *)
let footprint ?(params = Bprc_core.Params.default) algo ~n =
  let sim =
    Sim.create ~seed:0 ~max_steps:1 ~n ~adversary:(Adversary.random ()) ()
  in
  let (module C : Bprc_core.Consensus_intf.S) =
    protocol algo (Sim.batched sim)
  in
  let t = C.create ~params () in
  {
    space = C.space t;
    state_bits = C.state_bits t;
    registers_created = Sim.registers_created sim;
  }

type tally = {
  trials : int;
  finished : consensus_run list;
  violations : int;
  timeouts : int;
}

let tally runs =
  let count p =
    Array.fold_left (fun acc r -> if p r then acc + 1 else acc) 0 runs
  in
  {
    trials = Array.length runs;
    finished = List.filter (fun r -> r.completed) (Array.to_list runs);
    violations = count (fun r -> Result.is_error r.spec);
    timeouts = count (fun r -> not r.completed);
  }
