(** The paper's bounded weak shared coin (§3).

    Every process owns a counter [c_i ∈ {-(m+1) .. m+1}] held in
    scannable memory.  To flip, a process scans; if its own counter has
    escaped [{-m .. m}] it decides [heads] immediately (the
    deterministic overflow escape whose probability Lemmas 3.3–3.4 make
    negligible); if the {e walk value} [Σ c_i] has crossed [+δ·n] it
    decides heads, below [-δ·n] tails; otherwise it performs one
    [walk_step] (a local fair flip moving its counter ±1) and rescans.

    Lemma 3.1: disagreement probability ≤ about [1/(2δ)] (a scan can
    miss at most one pending increment per other process, total drift
    under [n], against a barrier of [δ·n]).
    Lemma 3.2: expected total steps [O((δ+1)·n²)].

    [m] defaults to [4·(δ·n)²], large enough that overflow is rare on
    the scale of the walk's hitting time (Lemma 3.3 takes
    [m = (f(b)·b)²]).

    The rule below is the coin's one definition: the standalone coin
    {!Make} and the round coins of the §5 strips all read it. *)

type verdict = Heads | Tails | Undecided
(** A coin as read from one view. *)

val bounds : delta:int -> m:int option -> n:int -> int * int
(** [(barrier, m)] for [n] processes: the barrier [δ·n], and [m], which
    defaults to [4·(δ·n)²].
    @raise Invalid_argument unless [delta] is positive and [m] exceeds
    the barrier. *)

val overflowed : m:int -> int -> bool
(** Has this own counter escaped [{-m .. m}]?  Then the coin is heads
    for its owner (Lemmas 3.3–3.4). *)

val barrier : threshold:int -> int -> verdict
(** The verdict of a walk value against the barriers [±threshold]. *)

val step : m:int -> int -> int -> int
(** [step ~m c move]: counter [c] after a walk step [move = ±1],
    clamped into the escape band [±(m+1)]. *)

module Make (R : Bprc_runtime.Runtime_intf.S) : sig
  type t

  val create : ?delta:int -> ?m:int -> unit -> t
  (** A fresh one-shot coin shared by all processes of the runtime.
      [delta] is the barrier multiplier (threshold [δ·n], default 2);
      [m] the counter bound (default [4·(δ·n)²]).
      @raise Invalid_argument as {!bounds}. *)

  val flip : t -> bool
  (** Run this process's part of the protocol until the coin's value is
      determined for it.  Wait-free. *)

  val total_walk_steps : t -> int
  (** Walk steps contributed by all processes so far. *)

  val overflows : t -> int
  (** Number of times a process decided by counter overflow. *)

  val probe : t -> Coin_probe.t
  (** The coin as the full-information adversary of the paper's model
      sees it: every process in round 0, its counter as last written,
      and the direction of a step it has drawn but not yet published.
      Live: the one record tracks the run. *)
end
