(** Summary statistics over recorded traces: how the adversary
    scheduled, where the memory traffic went, per-process progress.
    Used by the CLI's [trace] command and by diagnostics in tests. *)

type t = {
  events : int;
  reads : int;
  writes : int;
  flips : int;
  per_process : (int * int) array;  (** pid → (steps, flips) *)
  hottest_registers : (string * int) list;  (** name → accesses, descending *)
  longest_monopoly : int;
      (** longest run of consecutive events by a single process — a
          measure of how bursty the schedule was *)
}

val analyze : Trace.t -> n:int -> t
(** [hottest_registers] lists the five most accessed registers. *)

val pp : Format.formatter -> t -> unit
