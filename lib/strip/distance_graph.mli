(** The distance graph G(S) of a token-game state (§4.2).

    A directed weighted graph on the [n] tokens: edge [(i,j)] whenever
    [r_i ≥ r_j], with weight [min(r_i - r_j, K)].  The graph is what the
    edge counters of {!Edge_counters} encode; the paper's properties

    + for any pair at least one direction is present, both iff weight 0;
    + no positive-weight cycle;
    + path weights lie in [[0 .. K·n]];
    + any two max-weight paths between the same endpoints agree unless a
      saturated ([= K]) edge intervenes;
    + [dist i j] (the max path weight) equals [r_i - r_j] for max paths

    are all checkable through this module and are exercised as property
    tests. *)

type t

val of_positions : k:int -> int array -> t
(** Build G(S) from token positions.
    @raise Invalid_argument when [k > 127]: a weight is one signed
    byte. *)

val n : t -> int
val k : t -> int
val edge : t -> int -> int -> bool
val weight : t -> int -> int -> int
(** Defined only when [edge t i j]; @raise Invalid_argument otherwise. *)

val dist : t -> int -> int -> int option
(** Maximum weight over simple paths from [i] to [j]; [None] when [j]
    is unreachable from [i].  Read off the cached position
    reconstruction when the graph is some [of_positions] graph
    ([p.(i) - p.(j)], present iff [p.(i) >= p.(j)]); otherwise computed
    by [n] rounds of longest-walk relaxation from [i] (sound because
    valid graphs have no positive cycles). *)

val dist_ge : t -> int -> int -> int -> bool
(** [dist_ge t i j b] is [dist t i j >= Some b] without allocating the
    option: [true] iff [j] is reachable from [i] with max path weight
    at least [b].  The protocol's per-scan trails-by-K test. *)

val advance_row : t -> int -> Bytes.t -> unit
(** [advance_row t i row] advances, by one modulo [3K], every
    [row.(j)] such that edge [(j,i)] lies on some maximum-weight path
    into [i] (its weight is {e tight}: [weight j i = dist j i], the
    paper's [(∃k)((j,i) ∈ max_paths(k,i))] guard) or edge [(i,j)]
    weighs less than [K]: the paper's [inc_graph] on process [i]'s row
    of edge counters, one unsigned byte per counter
    ({!Edge_counters.inc_row_with}), in one pass.  Allocation-free on a
    positional graph.
    @raise Invalid_argument when [Bytes.length row <> n t]. *)

val is_leader : t -> int -> bool
(** [is_leader t i]: does [i] have an edge to every other process
    (is its token maximal)?  Allocation-free. *)

val no_positive_cycle : t -> bool
val weights_in_range : t -> bool
val total_order_consistent : t -> bool
(** Property 1: every pair has at least one direction, both iff 0. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {2 Scratch-graph plumbing (the [_into] decode path)}

    A scratch graph is one [t] refilled in place once per protocol scan
    instead of allocated per decode: {!Edge_counters.to_graph_into}
    writes the {!weights} of the edges that changed (every off-diagonal
    edge on a full refill) and calls {!invalidate} unless nothing changed.
    Queries then answer from the refilled weights; the cached position
    reconstruction reuses per-graph rank/order/pos scratch arrays.  The
    differential tests pin every query on refilled graphs against the
    frozen oracle in [test/oracles].  A refill clobbers every previous
    answer derived from the graph; callers must not hold on to a
    scratch graph across refills. *)

val max_k : int
(** 85, the largest [K] a scratch graph accepts: its weights are
    decoded from mod-3K edge counters, and [3K] counter values must fit
    one unsigned byte. *)

val create_scratch : k:int -> n:int -> t
(** An edgeless graph to refill through {!weights}.
    @raise Invalid_argument when [k <= 0 || n <= 0] or [k > max_k]. *)

val absent : int
(** -128: the signed byte {!weights} holds for a missing edge. *)

val weights : t -> Bytes.t
(** The graph's own flat weight matrix, one signed byte per entry
    ({!Bytes.get_int8}): entry [i*n + j] is the weight of edge [(i,j)],
    or {!absent}.  Refill plumbing: a write is neither validated nor
    invalidates the cache — callers must {!invalidate} once per refill.
    Diagonal entries must stay {!absent}. *)

val invalidate : t -> unit
(** Drop the cached position reconstruction and bump {!generation};
    call once per refill (before or after the edge writes, but before
    any query). *)

val generation : t -> int
(** How many times the graph has been {!invalidate}d.  A refiller that
    remembers the generation it left behind can tell whether the graph
    still holds its own last fill — {!Edge_counters.to_graph_into}
    re-decodes only the changed rows exactly when it does. *)

val inconsistent : t -> int
(** How many position reconstructions of this graph since it was made
    found no token positions that produce it.  On the bounded strip's
    scratch graph each one is a corrupt decode, which the relaxation
    fallback then answers. *)

val reconstruct_into : t -> bool
(** Force the position reconstruction now, into the graph's reused
    scratch arrays; [true] iff the graph is positional (the O(1)/O(n)
    query fast path applies).  Queries call this lazily — the explicit
    form exists for allocation tests and benchmarks. *)