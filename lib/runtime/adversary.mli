(** Scheduling adversaries for the simulator.

    An adversary chooses, at every step, which runnable process moves
    next.  The paper's adversary is adaptive and has full information;
    {!make} lets experiment code build such adversaries by closing over
    the simulated registers (via [peek]). *)

type ctx = {
  mutable clock : int;
  mutable runnable : int array;
      (** pids that may be scheduled, sorted ascending.  The simulator
          reuses both the [ctx] record and the backing array across
          steps (its hot path is allocation-free), and fills them only
          for the steps it asks [choose] to make (see {!policy}), so a
          [choose] implementation must treat them as valid only for
          the duration of the call: copy [runnable] before retaining
          it. *)
  rng : Bprc_rng.Splitmix.t;  (** adversary's own randomness stream *)
}

type policy = private
  | Closure  (** every choice is a call of [choose] *)
  | Round_robin of int ref
      (** {!round_robin}'s cursor: the least pid it may pick next *)
(** How the simulator makes an adversary's choices.  [Round_robin]
    lets {!Sim} pick the pids itself, inline and without filling [ctx],
    while advancing the one cursor that [choose] also reads and writes,
    so the schedule is exactly the one per-step calls of [choose] would
    make.  Only {!round_robin} builds one. *)

type t = private { name : string; choose : ctx -> int; policy : policy }
(** Private, so no copy [{ a with choose = ... }] can keep a policy
    that no longer matches its [choose]. *)

val make : name:string -> (ctx -> int) -> t
(** An adversary with the [Closure] policy. *)

val round_robin : unit -> t
(** Cycles fairly over runnable processes: picks the least runnable
    pid at or after the cursor (wrapping to the least runnable pid),
    then moves the cursor just past the pick, unwrapped. *)

val rr_pick : int array -> int -> int
(** [rr_pick runnable next] is {!round_robin}'s choice over a sorted,
    nonempty runnable set with cursor [next]; the caller advances the
    cursor. *)

val is_runnable : int array -> int -> bool
(** [is_runnable runnable pid]: [pid] is in [runnable].  Allocates
    nothing. *)

val random : unit -> t
(** Picks a uniformly random runnable process each step. *)

val bursty : burst:int -> unit -> t
(** Picks a random process and runs it for [burst] consecutive steps
    (or until it finishes) before picking again.  Models processes
    running at wildly different speeds. *)

val prioritize : favored:int list -> unit -> t
(** Always schedules the first runnable pid of [favored]; falls back to
    round-robin over the rest.  Starves the unfavored as long as the
    favored can run — useful for wait-freedom tests. *)

val scripted : choices:int list -> fallback:t -> unit -> t
(** Follows [choices] (each an index into the sorted runnable array,
    taken modulo its length), then defers to [fallback]. *)
