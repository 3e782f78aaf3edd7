(** The paper's evaluation, reproduced as sixteen experiments (see DESIGN.md
    §3 and EXPERIMENTS.md for the mapping to the paper's claims).

    Each experiment returns a {!Table.t}; [quick] shrinks trial counts
    for CI-speed runs ([bprc experiment] runs the full sizes unless
    given [--quick]).

    Every experiment expresses its trials as pure [(rng -> sample)]
    functions fanned out over a {!Pool.t} ([pool] defaults to the
    process-wide {!Pool.default}).  Trial seeds are forked from a fixed
    per-experiment root generator by cell and trial index, so results
    are deterministic and bit-identical at any worker count. *)

val e1_coin_agreement : ?quick:bool -> ?pool:Pool.t -> unit -> Table.t
(** Lemma 3.1: coin disagreement probability vs the barrier multiplier
    δ, against the ~1/(2δ) bound. *)

val e2_coin_steps : ?quick:bool -> ?pool:Pool.t -> unit -> Table.t
(** Lemma 3.2: expected total walk steps vs n; log-log slope ≈ 2. *)

val e3_overflow : ?quick:bool -> ?pool:Pool.t -> unit -> Table.t
(** Lemmas 3.3–3.4: overflow frequency and heads-bias vs the counter
    bound m. *)

val e4_rounds : ?quick:bool -> ?pool:Pool.t -> unit -> Table.t
(** §6.3: expected rounds to decision is constant in n. *)

val e5_total_steps : ?quick:bool -> ?pool:Pool.t -> unit -> Table.t
(** Headline: expected steps to consensus — paper's protocol vs the
    unbounded AH88-style baseline vs the exponential local-coin
    baseline vs the oracle-coin best case. *)

val e6_space : ?quick:bool -> ?pool:Pool.t -> unit -> Table.t
(** Headline: register size — constant for the paper's protocol,
    growing with rounds for the unbounded baseline. *)

val e7_scan_contention : ?quick:bool -> ?pool:Pool.t -> unit -> Table.t
(** §2 progress: scan retries vs concurrent-writer count. *)

val e8_strip_compression : ?quick:bool -> ?pool:Pool.t -> unit -> Table.t
(** §4 / Claim 4.1: the bounded strip tracks the unbounded game
    exactly while positions stay in [0..K·n]. *)

val e9_correctness : ?quick:bool -> ?pool:Pool.t -> unit -> Table.t
(** Consistency & validity: violation counts over a batch grid of
    algorithms × schedulers × input patterns (expected all zero). *)

val e10_adaptive_adversary : ?quick:bool -> ?pool:Pool.t -> unit -> Table.t
(** The adaptive anti-coin adversary stretches the walk by a constant
    factor but cannot prevent termination. *)

val e11_delta_ablation : ?quick:bool -> ?pool:Pool.t -> unit -> Table.t
(** Ablation: the coin barrier multiplier δ trades coin quality against
    walk length and register width. *)

val e12_k_ablation : ?quick:bool -> ?pool:Pool.t -> unit -> Table.t
(** Ablation: the strip constant K.  K = 1 breaks consistency (measured
    violations); K = 2 — the paper's choice — is the cheapest setting
    without them, though the strip defect of ROADMAP item 2 still
    breaks agreement there, rarely. *)

val e13_snapshot_ablation : ?quick:bool -> ?pool:Pool.t -> unit -> Table.t
(** Ablation: the consensus protocol over each of the three scannable
    memory implementations (handshake / plain double collect /
    embedded scans). *)

val e14_network_consensus : ?quick:bool -> ?pool:Pool.t -> unit -> Table.t
(** The protocol over ABD quorum-replicated registers on the
    message-passing simulator: message and event complexity vs n. *)

val e15_crash_tolerance : ?quick:bool -> ?pool:Pool.t -> unit -> Table.t
(** Fault injection: decide latency and correctness of ADS89 as up to
    ⌊(n-1)/2⌋ processes crash mid-run (must stay clean — wait-freedom
    tolerates any number of crash failures). *)

val e16_weakening : ?quick:bool -> ?pool:Pool.t -> unit -> Table.t
(** Fault injection: the protocol over registers downgraded to
    regular/safe semantics via {!Bprc_faults.Inject.weaken_runtime} —
    measures how the atomicity assumption's failure manifests. *)

val all : ?quick:bool -> ?pool:Pool.t -> unit -> Table.t list
val by_id : string -> (?quick:bool -> ?pool:Pool.t -> unit -> Table.t) option
val ids : string list
