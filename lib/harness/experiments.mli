(** The paper's evaluation, reproduced as fifteen experiments (see DESIGN.md
    §3 and EXPERIMENTS.md for the mapping to the paper's claims).

    Each experiment returns a {!Table.t}; [quick] shrinks trial counts
    for CI-speed runs ([bprc experiment] runs the full sizes unless
    given [--quick]).

    Every experiment expresses its trials as pure [(rng -> sample)]
    functions fanned out over a {!Pool.t} ([pool] defaults to the
    process-wide {!Pool.default}).  Trial seeds are forked from a fixed
    per-experiment root generator by cell and trial index, so results
    are deterministic and bit-identical at any worker count. *)

val ids : string list
(** ["E1"] to ["E16"], in order. *)

val by_id : string -> (?quick:bool -> ?pool:Pool.t -> unit -> Table.t) option
(** The experiment of an id (case-insensitive):
    - E1, Lemma 3.1: coin disagreement probability vs the barrier
      multiplier δ, against the ~1/(2δ) bound.
    - E2, Lemma 3.2: expected total walk steps vs n; log-log slope ≈ 2.
    - E3, Lemmas 3.3–3.4: overflow frequency and heads-bias vs the
      counter bound m.
    - E4, §6.3: expected rounds to decision is constant in n.
    - E5, headline: expected steps to consensus — the paper's protocol
      vs the unbounded AH88-style baseline vs the exponential
      local-coin baseline vs the oracle-coin best case.
    - E6, headline: register size — constant for the paper's protocol,
      growing with rounds for the unbounded baseline.
    - E7, §2 progress: scan retries vs concurrent-writer count.
    - E8, §4 / Claim 4.1: the bounded strip tracks the unbounded game
      exactly while positions stay in [0..K·n].
    - E9, consistency and validity: violation counts over a grid of
      algorithms × schedulers × input patterns (expected all zero).
    - E10: the adaptive anti-coin adversary stretches the walk by a
      constant factor but cannot prevent termination.
    - E11, ablation: the barrier multiplier δ trades coin quality
      against walk length and register width.
    - E12, ablation: the strip constant K.  K = 1 breaks consistency
      (measured violations); K = 2, the paper's choice, is the cheapest
      setting without them, though the strip defect of ROADMAP item 2
      still breaks agreement there, rarely.
    - E13, ablation: the protocol over each of the three scannable
      memories (handshake / plain double collect / embedded scans).
    - E15, fault injection: decide latency and correctness as up to
      ⌊(n-1)/2⌋ processes crash mid-run (must stay clean).
    - E16, fault injection: the protocol over registers downgraded to
      regular/safe semantics ({!Bprc_faults.Inject.weaken_runtime}). *)
