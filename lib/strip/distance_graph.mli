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
(** Build G(S) from token positions. *)

val of_weights : k:int -> present:(int -> int -> bool) -> weight:(int -> int -> int) -> n:int -> t
(** Build from arbitrary decoded edge data (used by {!Edge_counters});
    no structural validation beyond storing. *)

val n : t -> int
val k : t -> int
val edge : t -> int -> int -> bool
val weight : t -> int -> int -> int
(** Defined only when [edge t i j]; @raise Invalid_argument otherwise. *)

val dist : t -> int -> int -> int option
(** Maximum weight over simple paths from [i] to [j]; [None] when [j]
    is unreachable from [i].  Computed by condensing weight-0 strongly
    connected components and longest-path DP over the resulting DAG
    (sound because valid graphs have no positive cycles). *)

val dist_ge : t -> int -> int -> int -> bool
(** [dist_ge t i j b] is [dist t i j >= Some b] without allocating the
    option: [true] iff [j] is reachable from [i] with max path weight
    at least [b].  The protocol's per-scan trails-by-K test. *)

val on_max_path : t -> int -> int -> bool
(** [on_max_path t j i]: does edge [(j,i)] lie on some maximum-weight
    path into [i] — equivalently, is its weight {e tight}
    ([weight j i = dist j i])?  This is the paper's
    [(∃k)((j,i) ∈ max_paths(k,i))] guard in [inc]. *)

val leaders : t -> int list
(** Processes [i] with an edge to every other process (the maximal
    tokens).  Built by an index loop (no intermediate lists), but the
    result list still allocates: hot callers should use {!is_leader} /
    {!leaders_into} instead; this form is kept for tests and the
    checker.  The frozen copy in [test/oracles/distance_graph_ref.ml]
    is its differential oracle. *)

val is_leader : t -> int -> bool
(** [is_leader t i]: does [i] have an edge to every other process?
    Allocation-free; [leaders t = List.filter (is_leader t) [0..n-1]]. *)

val leaders_into : t -> int array -> int
(** [leaders_into t out] writes the leaders in ascending order into
    [out] and returns how many there are — the allocation-free
    counterpart of {!leaders} for callers that own a reusable buffer.
    @raise Invalid_argument when [Array.length out < n t]. *)

val inc : t -> int -> t
(** The paper's abstract [inc(i, G)] transformation: token [i] moved
    one step, tight incoming edges decremented, outgoing weights
    incremented up to the cap [K], negative edges flipped. *)

val no_positive_cycle : t -> bool
val weights_in_range : t -> bool
val total_order_consistent : t -> bool
(** Property 1: every pair has at least one direction, both iff 0. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {2 Scratch-graph plumbing (the [_into] decode path)}

    A scratch graph is one [t] refilled in place once per protocol scan
    instead of allocated per decode: {!Edge_counters.to_graph_into}
    sets or clears the edges that changed (every off-diagonal edge on
    a full refill) and calls {!invalidate} unless nothing changed,
    after which the graph is indistinguishable from a fresh
    {!of_weights} decode of the same data — queries, including the
    cached position reconstruction (which reuses per-graph
    rank/order/pos scratch arrays), answer identically.  The
    differential tests pin refilled-vs-fresh equality.  A refill
    clobbers every previous answer derived from the graph; callers must
    not hold on to a scratch graph across refills. *)

val create_scratch : k:int -> n:int -> t
(** An edgeless graph to refill via {!set_edge}/{!clear_edge}.
    @raise Invalid_argument when [k <= 0 || n <= 0]. *)

val set_edge : t -> int -> int -> int -> unit
(** [set_edge t i j w]: make edge [(i,j)] weigh [w].  Refill plumbing:
    no validation, no cache invalidation — callers must {!invalidate}
    once per refill.  Diagonal entries must never be set. *)

val clear_edge : t -> int -> int -> unit
(** Remove edge [(i,j)] (same contract as {!set_edge}). *)

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