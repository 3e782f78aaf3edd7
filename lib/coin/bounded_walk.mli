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
    [m = (f(b)·b)²]). *)

module Make (R : Bprc_runtime.Runtime_intf.S) : sig
  type t

  val create : ?name:string -> seed:int -> unit -> t
  (** A fresh one-shot coin shared by all processes of the runtime,
      with the default [delta] and [m].  [seed] is unused: the walk
      draws only the processes' own flips. *)

  val flip : t -> bool
  (** Run this process's part of the protocol until the coin's value is
      determined for it.  Wait-free. *)

  val total_walk_steps : t -> int
  (** Walk steps contributed by all processes so far. *)

  val overflows : t -> int
  (** Number of times a process decided by counter overflow. *)

  val create_custom :
    ?name:string -> ?delta:int -> ?m:int -> seed:int -> unit -> t
  (** [delta] is the barrier multiplier (threshold [δ·n], default 2);
      [m] the counter bound. *)

  val walk_value : t -> int
  (** Current [Σ c_i] as seen by an instantaneous (checker-level) read,
      including steps drawn but not yet published. *)

  val published_walk_value : t -> int
  (** [Σ c_i] over the counter values as last {e written} — what a scan
      can actually observe.  Adversary/checker probe. *)

  val pending_direction : t -> int -> int
  (** [+1]/[-1] when the process has drawn a flip it has not yet
      published, [0] otherwise.  The full-information adversary of the
      paper's model is entitled to this (it sees local coin flips as
      they happen); the adaptive schedulers in the harness use it. *)
end
