(** Wing–Gong linearizability checker.

    Decides whether a concurrent history (a list of completed,
    interval-timestamped operations — see {!Hist}) has a legal
    linearization: a total order of the operations that (a) extends the
    real-time precedence order and (b) is a run of the sequential
    specification, each operation's observed result included.

    The specification is a pure state machine: [apply st op] is the
    post-state when [op] (an invocation bundled with its observed
    response) is legal from [st], and [None] otherwise.  States must
    compare and hash structurally (they key the memo table); keep them
    canonical — e.g. sorted lists, not arbitrary-order ones.

    The search is the Wing–Gong depth-first enumeration of next-minimal
    operations with memoization of failed [(linearized-set, state)]
    pairs.  Worst-case exponential, fine for the bounded explorer's
    histories (a few dozen operations).  It is the repository's one
    linearizability checker: the explorer configurations and the
    register and checker tests all use it. *)

module type SPEC = sig
  type state
  type op

  val name : string

  val init : state

  val apply : state -> op -> state option
  (** [None] when [op]'s observed response is impossible from [state]. *)

  val pp_op : Format.formatter -> op -> unit
end

val max_events : int
(** Operation-count cap (the linearized set is an [int] bitmask). *)

module Make (S : SPEC) : sig
  type verdict =
    | Linearizable of S.op Hist.event list
        (** a witness linearization, in order *)
    | Not_linearizable

  val check : S.op Hist.event list -> verdict
  (** @raise Invalid_argument on more than {!max_events} operations. *)

  val check_events : S.op Hist.event array -> verdict
  (** [check] on {!Hist.events_array} output: the explorer's per-run
      hot path, skipping the intermediate event list.  The array is
      not modified. *)

  val linearizable : S.op Hist.event array -> bool
  (** [check_events] found a linearization. *)
end
