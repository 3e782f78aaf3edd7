(** The bounded polynomial randomized consensus protocol of
    Attiya–Dolev–Shavit (§5) — the paper's primary contribution — and
    the one §5 loop that it shares with the {!Ah88} baseline.

    The §5 protocol is the Aspnes–Herlihy protocol with two parts
    swapped in: the §4 bounded strip replaces unbounded round numbers,
    and the §3 bounded coin replaces the unbounded walk.  So the loop
    is written once, as {!Over_strip}, a functor over a {e strip}: the
    module that owns a process's round state and round coins.  The
    paper's protocol is that loop over the bounded strip; {!Ah88} is
    the same loop over the unbounded one.

    Each process's segment of one scannable memory holds its whole
    state: a preference in \{⊥, 0, 1\} and its strip state.  In the
    bounded strip that is a pointer and [K+1] bounded counters
    implementing the coins of its latest rounds (§3 embedded per
    Observation 1), and its row of the mod-3K edge counters that
    encode the rounds-strip distance graph (§4).  Everything is bounded
    by a function of [n] and the parameters; no field ever grows.

    The protocol loop, §5 (reconstruction decisions in DESIGN.md):

    + scan;
    + if I hold a preference, am a leader, and every process preferring
      otherwise trails me by the full [K]: {e decide} my preference;
    + else if all leaders hold one common non-⊥ preference [v]: adopt
      [v] and advance a round ([inc]);
    + else if my preference is non-⊥: retract it (write ⊥, same round);
    + else if my round's shared coin is undecided: perform one walk
      step on my counter for this round;
    + else: adopt the coin's value and advance a round.

    In the bounded strip, advancing a round ([inc]) bumps the coin
    pointer, zeroes the slot that now represents the round being
    entered (recycling the slot of the round [K+1] back, per
    Observation 1.2 — contributions to coins more than [K] rounds back
    are withdrawn), and advances the edge counters per [inc_graph].

    [coin_mode] swaps the round-coin implementation to obtain the
    baselines of the evaluation (see {!Consensus_intf.coin_mode}). *)

type coin_mode = Consensus_intf.coin_mode =
  | Shared_walk
  | Local_flips
  | Oracle_shared

type stats = Consensus_intf.stats = {
  scans : int;
  writes : int;
  walk_steps : int;
  max_raw_round : int;
  decided : bool option array;
  rounds_at_decision : int array;
  inconsistent_reconstructions : int;
}

val decision : bool -> bool option
(** [Some v] as one of two shared boxes, so that an array of decisions
    keeps one word per process.  The §5 loop's [decided] array and the
    harness's decided results hold these. *)

type 'r segment = {
  pref : bool option;
  round : 'r;  (** the strip's round state and round coins *)
  ghost : int;
      (** checker-only write stamp: nothing in the protocol reads it,
          and the space accounting leaves it out *)
}
(** One process's segment of the scannable memory. *)

type verdict = Bprc_coin.Bounded_walk.verdict = Heads | Tails | Undecided
(** A round coin as read from one view: the §3 coin's verdict. *)

(** A strip: one process's round state and round coins, and how they
    are decoded from a scan, advanced, and walked.  These are the only
    points where the bounded and the unbounded protocol differ.

    After each scan the loop calls {!decode} once, then asks each
    question of that decode.  The decode holds until another process
    decodes, so a caller that yields in between decodes again. *)
module type STRIP = sig
  type t
  (** One instance's strip: parameters, a decode scratch that every
      process shares, and meta-level counters. *)

  type round
  (** One process's published round state and round coins. *)

  type decode_stats

  val name : string
  (** Default register name of the protocol over this strip. *)

  val create : Params.t -> n:int -> t
  val init : t -> round

  val decode : t -> round segment array -> int -> unit
  (** [decode s view me]: decode [view] as process [me] sees it. *)

  val leader : t -> int -> bool
  (** Is process [i] a leader: is no process ahead of it? *)

  val trails : t -> int -> bool
  (** Does process [j] trail me by at least [K] rounds? *)

  val coin : t -> round segment array -> verdict
  (** My current round's shared coin, read from the decoded view. *)

  val advance : t -> round -> round
  (** My round state after entering the next round, against the latest
      decode. *)

  val walk : t -> round -> int -> round
  (** My round state after one walk step [±1] on my counter for my
      current round. *)

  val counter : t -> round -> int
  (** My counter for my current round. *)

  val edges : round -> int array
  (** The edge-counter row the §6.1 scan recorder copies. *)

  val state_bits : t -> int
  (** Payload bits per segment. *)

  val register_bits : t -> int
  (** The width {!Consensus_intf.S.register_bits} reports. *)

  val decode_stats : t -> decode_stats

  val inconsistent_reconstructions : t -> int
  (** Position reconstructions of the decoded graph that found no token
      positions producing it: the corrupt graph fills some query
      needed positions for (a fill no row change touched keeps its
      verdict and counts once). *)
end

module Over_strip
    (St : STRIP)
    (R : Bprc_runtime.Runtime_intf.S)
    (_ : Bprc_snapshot.Snapshot_intf.S) : sig
  include Consensus_intf.S

  val decode_stats : t -> St.decode_stats
end
(** The §5 loop over strip [St]: one instance per application. *)

module type S = sig
  include Consensus_intf.S

  val decode_stats : t -> Bprc_strip.Edge_counters.refill_stats
  (** The paths taken so far by the decodes into the instance's one
      strip-decode scratch, which every process shares.  Bumped without
      allocating, and deterministic under the simulator. *)
end

module Make_over_snapshot
    (R : Bprc_runtime.Runtime_intf.S)
    (_ : Bprc_snapshot.Snapshot_intf.S) : S
(** The paper's protocol, the loop over the bounded strip, over
    another scannable-memory implementation.

    {b Caution}: safety (consistency/validity) only needs P1–P3, but
    liveness additionally needs scans whose views are current as of the
    scan's {e end} — the handshake and {!Bprc_snapshot.Unbounded}
    double-collect objects provide this, while the borrowed views of
    {!Bprc_snapshot.Embedded} do not, and the protocol can livelock
    over it (experiment E13; DESIGN.md interpretation note 8). *)

module Make_batched (R : Bprc_runtime.Runtime_intf.BATCHED) : S
(** The paper's configuration: the protocol over the §2 handshake
    snapshot of the given runtime, whose collects run as batches. *)

module Make (R : Bprc_runtime.Runtime_intf.S) : S
(** [Make_batched] over {!Bprc_runtime.Runtime_intf.Loop}: the same
    protocol and accesses, one access at a time. *)
