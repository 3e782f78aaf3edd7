(** Protocol parameters for the bounded consensus algorithm (§5).

    - [k]: the strip compression constant; the paper fixes [K = 2]
      ("Let K be 2") — disagreeing processes must trail a leader by [K]
      before it decides, and each process keeps the coins of its latest
      [K+1] rounds.
    - [delta]: barrier multiplier of the round coins (threshold
      [δ·n]).
    - [m]: counter bound of the round coins; [None] selects
      [4·(δ·n)²] at instantiation (cf. Lemma 3.3). *)

type t = { k : int; delta : int; m : int option }

val default : t
(** [{ k = 2; delta = 2; m = None }]. *)

val validate : t -> n:int -> int * int * int
(** [(k, delta, m)] with [m] resolved by
    {!Bprc_coin.Bounded_walk.bounds}.  @raise Invalid_argument on
    nonsensical values, and on [k] above
    {!Bprc_strip.Distance_graph.max_k} (85): the edge counters, in
    [[0, 3K)], are stored one per byte. *)

val bits_for : int -> int
(** Bits needed to represent [x] distinct values. *)

val state_bits : t -> n:int -> int
(** Size in bits of one process's protocol state (preference, coin
    pointer, [K+1] coin counters, [n] edge counters) — the payload one
    scannable-memory segment must carry, excluding any snapshot control
    bits.  Feed to {!Bprc_snapshot.Snapshot_intf.S.space} as
    [value_bits]. *)
