(** The bounded polynomial randomized consensus protocol of
    Attiya–Dolev–Shavit (§5) — the paper's primary contribution.

    Each process's segment of one scannable memory holds its whole
    state: a preference in \{⊥, 0, 1\}, a pointer and [K+1] bounded
    counters implementing the coins of its latest rounds (§3 embedded
    per Observation 1), and its row of the mod-3K edge counters that
    encode the rounds-strip distance graph (§4).  Everything is bounded
    by a function of [n] and the parameters; no field ever grows.

    The protocol loop, §5 (reconstruction decisions in DESIGN.md):

    + scan;
    + if I hold a preference, am a leader of the distance graph, and
      every process preferring otherwise trails me by the full [K]:
      {e decide} my preference;
    + else if all leaders hold one common non-⊥ preference [v]: adopt
      [v] and advance a round ([inc]);
    + else if my preference is non-⊥: retract it (write ⊥, same round);
    + else if my round's shared coin is undecided: perform one walk
      step on my counter for this round;
    + else: adopt the coin's value and advance a round.

    Advancing a round ([inc]) bumps the coin pointer, zeroes the slot
    that now represents the round being entered (recycling the slot of
    the round [K+1] back, per Observation 1.2 — contributions to coins
    more than [K] rounds back are withdrawn), and advances the edge
    counters per [inc_graph].

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
}

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
(** The protocol over another scannable-memory implementation.

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
