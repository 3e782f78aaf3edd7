(** Sequential specifications for the objects in the scannable-memory
    stack, as {!Lin.SPEC} state machines.

    Each operation type bundles an invocation with its observed
    response, so [apply] can reject responses that are impossible from
    the candidate state. *)

(** {1 Atomic read/write register} *)

type reg_op =
  | Read of int  (** a read that returned the payload *)
  | Write of int

module Register : Lin.SPEC with type op = reg_op and type state = int
(** Single integer register, initially [0]. *)

val regular : ?init:int -> reg_op Hist.event list -> bool
(** Single-writer regularity, weaker than linearizability against
    {!Register}: every read returns the value of a write it overlaps,
    or of the last write that precedes it ([init], default [0], when
    there is none).  Regular registers allow the new-old inversion that
    atomic ones forbid.
    @raise Invalid_argument if two writes overlap (more than one
    writer). *)

(** {1 Atomic snapshot object} *)

type snap_op =
  | Update of { pid : int; value : int }
  | Scan of int array  (** the view the scan returned, one slot per pid *)

val pp_snap_op : Format.formatter -> snap_op -> unit

val snapshot :
  n:int -> ?init:int -> unit -> (module Lin.SPEC with type op = snap_op)
(** [n]-segment single-writer snapshot object; every segment starts at
    [init] (default [0]).  A [Scan] is legal exactly when its view
    equals the current memory; an [Update] overwrites the writer's
    segment. *)

(** {1 Consensus} *)

type cons_op = Propose of { input : int; output : int }

module Consensus : Lin.SPEC with type op = cons_op
(** Validity + agreement: the first linearized [Propose] fixes the
    decision, which must be one of the inputs proposed so far (its own
    included); every later [Propose] must return that same decision. *)
