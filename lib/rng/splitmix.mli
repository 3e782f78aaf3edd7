(** Deterministic splitmix64 pseudo-random number generator.

    Every randomized component of the library draws from an explicit
    [Splitmix.t] so that whole experiments are reproducible from a single
    integer seed.  Independent streams for sub-components are obtained
    with {!split}, which derives a statistically independent child
    generator without perturbing the parent's future output. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 64-bit seed.  Equal seeds
    yield equal output streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will replay exactly the
    future outputs of [t]. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val bits30 : t -> int
(** 30 uniformly random bits as a non-negative [int]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  @raise Invalid_argument if
    [bound <= 0]. *)

val bool : t -> bool
(** Fair coin flip. *)

val float : t -> float
(** Uniform in [0, 1). *)

val split : t -> t
(** [split t] advances [t] once and returns a child generator seeded
    from that output; child streams for distinct split points are
    independent for all practical purposes. *)

val fork : t -> int -> t
(** [fork t i] is a child generator for sub-component [i], derived
    deterministically from [t]'s current state {e without} advancing
    [t].  Distinct [i] give independent streams. *)

val reseed_fork : t -> seed:int -> int -> unit
(** [reseed_fork t ~seed i] rewinds [t] in place to the state
    [fork (create ~seed) i] produces, allocating no generator records —
    the hot-reset counterpart of composing {!create} and {!fork}.  Arena
    reuse paths ({!Bprc_runtime.Sim.reset}) rewind one per-process
    stream per reset, so the composition being allocation-free matters
    there. *)
