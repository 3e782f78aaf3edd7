(** The one adversary view of the §3 coin, for the full-information
    adaptive adversaries (the paper's adversary sees local coin flips
    as they happen and the whole memory).  A consensus instance reports
    its round coins through it; the standalone coin puts every process
    in round 0.

    All arrays are indexed by pid and refer to each process's current
    round's walk counter. *)

type t = {
  rounds : int array;  (** true (unbounded) round number per process *)
  published : int array;  (** current-round counter as last written *)
  pending : int array;  (** direction of a drawn-but-unpublished step *)
  threshold : int;  (** the coin's decision barrier δ·n *)
}

val create : n:int -> threshold:int -> t
(** [n] processes in round 0, nothing published or pending. *)

val published_sum_at_front : t -> int
(** Sum of published counters of the processes in the highest round. *)

val pending_at_front : t -> int -> int
(** Pending direction of the process if it is in the highest round,
    0 otherwise. *)
