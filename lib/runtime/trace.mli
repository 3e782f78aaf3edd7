(** Recording of shared-memory operations executed during a run.

    Traces serve [bprc trace] (its access statistics and the event
    digest that [test/cram/determinism.t] pins) and the tests.  The
    adaptive adversaries read [Bprc_coin.Coin_probe] instead, and the
    correctness checkers read [Bprc_check.Hist] histories.  Values are
    not recorded (they are polymorphic).  A trace grows without bound;
    index 0 is the oldest event. *)

type kind =
  | Read
  | Write
  | Flip of bool
  | Step  (** explicit no-op yield *)

type event = {
  time : int;  (** global step counter at execution *)
  pid : int;
  reg_id : int;  (** -1 for [Flip]/[Step] *)
  reg_name : string;
  kind : kind;
}

type t

val create : unit -> t
val record : t -> event -> unit
val length : t -> int

val iter : (event -> unit) -> t -> unit
(** Oldest to newest. *)

val to_list : t -> event list
val clear : t -> unit

val digest : t -> string
(** Canonical digest of the whole trace: every event rendered as one
    [time|pid|reg_id|name|kind] line ([kind] one of [R], [W], [F0],
    [F1], [S]), MD5-hashed, in hex.  Any change that perturbs
    scheduling, flip draws or event recording changes it. *)
