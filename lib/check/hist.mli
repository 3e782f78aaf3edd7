(** Concurrent operation histories, the input of the linearizability
    checker.

    An event is one completed operation of one process, tagged with an
    interval of logical timestamps.  Timestamps come from the history's
    own strictly-increasing counter ({!stamp}); under the cooperative
    simulator, code execution order is real-time order, so bracketing an
    operation with two stamps yields its exact real-time interval.  The
    operation payload ['op] is whatever the specification the history
    will be checked against understands (see {!Lin.SPEC}). *)

type 'op event = {
  pid : int;
  start_time : int;
  finish_time : int;
  op : 'op;
}

type 'op t

val create : unit -> 'op t

val stamp : 'op t -> int
(** Strictly-increasing event timestamp. *)

val record : 'op t -> pid:int -> start_time:int -> finish_time:int -> 'op -> unit
(** Append one completed operation.
    @raise Invalid_argument when [finish_time < start_time]. *)

val events : 'op t -> 'op event list
(** In recording order. *)

val events_array : 'op t -> 'op event array
(** {!events} as a fresh array — the checker's per-run path, skipping
    the list. *)

val clear : 'op t -> unit

val precedes : 'op event -> 'op event -> bool
(** Real-time order: [a] finished before [b] started. *)

val pp_event :
  (Format.formatter -> 'op -> unit) -> Format.formatter -> 'op event -> unit
