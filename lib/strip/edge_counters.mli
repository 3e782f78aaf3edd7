(** The concurrent bounded encoding of the distance graph (§4.3).

    Each pair of processes shares two counters on a cycle of size
    [3K]: [e.(i).(j)] is process [i]'s pointer for the pair [(i,j)]
    (only process [i] ever changes row [i]).  Decoding a pair with
    [a = (e.(i).(j) - e.(j).(i)) mod 3K]:

    - [a = 0]: both edges, weight 0 (tokens level);
    - [1 ≤ a ≤ K]: edge [(i,j)] with weight [a] ([i] leads [j] by [a]);
    - [2K ≤ a < 3K]: edge [(j,i)] with weight [3K - a];
    - [K < a < 2K]: undecodable — never reached, because a process only
      advances its pointer when it trails or leads by less than [K].

    Counters and rows are stored at their width: the matrix holds one
    unsigned byte per counter, and a row is a [Bytes.t] of length [n].
    So [3K] must fit a byte: [K ≤ {!Distance_graph.max_k}] (85).

    A process adopts a (possibly stale, snapshot-read) view of all rows
    with {!set_row}/{!set_rows}, decodes it into a scratch graph with
    {!to_graph_into}, and computes its next row with {!inc_row_with},
    the paper's [inc_graph]: advance the pointers toward processes it
    tightly trails (along a max path) or leads by less than [K]. *)

type t

val create : k:int -> n:int -> t
(** All counters 0 (all tokens level).
    @raise Invalid_argument when [k <= 0], [n <= 0] or
    [k > Distance_graph.max_k]. *)

val set_rows : t -> Bytes.t array -> unit
(** Adopt existing rows (e.g. scanned from shared memory) in place,
    allocating nothing: one scratch counter object per protocol
    instance absorbs a scanned view per round.  Row by row as
    {!set_row}.
    @raise Invalid_argument if the matrix is not square or an entry is
    outside [[0, 3K)]. *)

val set_row : t -> int -> Bytes.t -> unit
(** Adopt a single row — lets a caller holding per-process rows
    fill the scratch without assembling a row matrix first.

    {b Adopted rows must never be mutated afterwards.}  A row
    physically equal to the one last adopted at the same index is
    taken as unchanged and skipped; any other row is copied in and
    marks the row changed for the next {!to_graph_into}.  Shared-memory
    rows satisfy this: a published row is never written again.
    @raise Invalid_argument on a bad row index, length or entry. *)

val k : t -> int
val n : t -> int

val rows : t -> Bytes.t array
(** Copy of the whole matrix.  Allocates a fresh matrix per call;
    kept for tests, benchmarks and debugging only. *)

val decode_pair : t -> int -> int -> int
(** The raw cyclic difference [a] for the ordered pair (see above). *)

val valid : t -> bool
(** No pair decodes into the forbidden band [(K, 2K)]. *)

val to_graph_into : t -> Distance_graph.t -> unit
(** Decode into a caller-owned scratch graph (built with
    {!Distance_graph.create_scratch} at the same [k]/[n]): afterwards
    the scratch holds edge [(i,j)] with weight [a] exactly when the
    pair decodes to [a ≤ K] (see above).

    Incremental: when [g] still holds this [t]'s previous decode (the
    same graph, not {!Distance_graph.invalidate}d since), only the
    rows changed since then (per {!set_row}/{!apply_inc}) have their
    pairs re-validated and re-decoded, and the cached reconstruction
    is dropped; with no changed row the graph and its cached
    reconstruction are kept untouched.  Otherwise every row counts as
    changed: every off-diagonal edge is validated, set or cleared and
    the cache invalidated.  Either way the steady state allocates
    nothing.
    @raise Invalid_argument when {!valid} is false (the graph is left
    as it was) or on a scratch-shape mismatch. *)

type refill_stats = {
  full_refills : int;
      (** whole-matrix decodes by {!to_graph_into}: cold ones (first
          use, another graph, after an error) and every-row-changed ones *)
  incremental_refills : int;  (** decodes of 1 to n-1 changed rows *)
  rows_redecoded : int;  (** changed rows decoded by incremental refills *)
  reuses : int;  (** refills with no changed row: graph kept as is *)
}

val refill_stats : t -> refill_stats
(** Counters of {!to_graph_into}'s paths since [t] was made (plain
    ints, bumped without allocating; deterministic under the
    simulator). *)

val inc_row_with : t -> graph:Distance_graph.t -> int -> Bytes.t
(** [inc_row_with t ~graph i]: the new row for process [i] per
    [inc_graph], against [graph], the decode of [t] just refilled by
    {!to_graph_into}, so the hot path decodes once per scan.  The
    returned row is fresh (it is published to shared memory and must
    not alias the scratch).
    @raise Invalid_argument on a graph shape mismatch. *)

val apply_inc : t -> int -> unit
(** Sequential play: decode [t] with {!to_graph_into} into a graph
    [t] keeps for this, then store {!inc_row_with}'s row in place and
    mark it changed for the next {!to_graph_into}.
    @raise Invalid_argument when {!valid} is false. *)
