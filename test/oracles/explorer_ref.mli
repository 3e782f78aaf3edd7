(** Frozen pre-ladder sequential explorer, kept as a differential
    oracle.

    This is the stateless-checking baseline {!Explorer} was rewritten
    from: per-run heap-allocated DFS node records, every run replayed
    from the root on a single arena, no checkpoint ladder, no parallel
    machinery.  Its reports define the sequential-exact semantics the
    optimised {!Explorer} must reproduce bit for bit — the equivalence
    suite in [test/test_check.ml] diffs full reports against it across
    every registry config, with and without reduction, and on a skewed
    tree and mid-tree [max_runs] bounds.  Do not modify this module
    when changing {!Explorer}. *)

type setup = Bprc_runtime.Sim.t -> unit -> (unit, string) result

type witness = {
  choices : int list;
  flips : bool list;
  failure : string;
  clock : int;
}

type stats = {
  runs : int;
  pruned : int;
  step_limited : int;
  exhausted : bool;
  violation : witness option;
}

type replay_outcome = Pass | Fail of string | Cutoff

val explore :
  n:int ->
  ?max_steps:int ->
  ?max_runs:int ->
  ?budget_s:float ->
  ?reduction:bool ->
  ?shrink:bool ->
  setup:setup ->
  unit ->
  stats
(** Same semantics and defaults as {!Explorer.explore}. *)

val replay :
  n:int ->
  ?max_steps:int ->
  choices:int list ->
  flips:bool list ->
  setup:setup ->
  unit ->
  replay_outcome * int
(** Same as {!Explorer.replay}. *)
