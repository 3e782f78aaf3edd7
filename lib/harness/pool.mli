(** Fixed-size domain pool for embarrassingly parallel experiment
    trials.

    Trials are pure functions of a per-trial seed, so fanning them out
    across OCaml 5 domains changes wall-clock time but not results:
    {!map_seeded} hands trial [i] the generator [Splitmix.fork base i],
    which depends only on the base generator's state and the trial
    index — never on scheduling — so a run is bit-identical at any
    worker count, including the inline sequential path of a 1-worker
    pool.

    A pool must only be driven from one domain at a time ([map] calls
    do not nest), which is how the experiment suite uses it. *)

type t

val default_workers : unit -> int
(** Worker count used by {!create} when [?workers] is omitted: the
    [BPRC_WORKERS] environment variable when set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]. *)

val create : ?workers:int -> unit -> t
(** [create ~workers ()] is a pool of [max 1 workers] workers.  The
    calling domain counts as one worker; [workers - 1] helper domains
    are spawned lazily on the first parallel {!map}.  A 1-worker pool
    never spawns and runs everything inline. *)

val workers : t -> int
(** Total worker count (including the calling domain). *)

val shutdown : t -> unit
(** Join the helper domains.  Idempotent: a second (or later) call is
    an explicit no-op.  A shut-down pool refuses further work — {!map}
    and its derivatives raise [Invalid_argument] rather than silently
    degrading to inline execution. *)

val default : unit -> t
(** A process-wide shared pool of {!default_workers} workers, created
    on first use and shut down automatically at exit.  Must only be
    used from the domain that first created it (in practice the main
    domain).  @raise Invalid_argument when called from any other
    domain — a helper domain sharing this pool would deadlock inside a
    draining {!map}; create a dedicated pool instead. *)

val map : t -> int -> (int -> 'a) -> 'a array
(** [map pool count f] is [[| f 0; ...; f (count-1) |]], with the
    calls distributed over the pool's workers.  [f] must be safe to
    call from any domain.  If any call raises, one of the exceptions is
    re-raised in the caller after all claimed trials finish.
    @raise Invalid_argument when the pool has been {!shutdown} (as do
    {!map_list} and {!map_seeded}). *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list pool f xs] is [List.map f xs] with the calls distributed
    over the pool, preserving input order.  The list-shaped counterpart
    of {!map}; the CLI's fault-hunt loop dispatches trials through it. *)

val helper_minor_words : t -> float
(** Cumulative [Gc.minor_words] allocated by helper domains while
    draining this pool's jobs ([Gc.minor_words] is a per-domain
    counter, so the driving domain's own reading misses helpers
    entirely).  Metered per claimed chunk and summed under the pool
    lock at chunk completion; add it to a driving-domain measurement to
    get whole-pool allocation.  Only meaningful between jobs, read from
    the driving domain. *)

val map_seeded :
  t -> rng:Bprc_rng.Splitmix.t -> trials:int -> (Bprc_rng.Splitmix.t -> 'a) -> 'a array
(** [map_seeded pool ~rng ~trials f] runs [trials] independent trials,
    handing trial [i] the forked generator [Splitmix.fork rng i].  The
    base generator is snapshotted up front and never advanced, so the
    result depends only on [rng]'s state at call time and is identical
    at any worker count. *)
