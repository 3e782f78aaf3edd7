(** Aspnes–Herlihy-style consensus over an {e unbounded} rounds strip —
    the baseline the paper improves on (space-wise).

    It is the one §5 loop, {!Ads89.Over_strip}, over the unbounded
    strip: rounds are plain unbounded integers and every process's
    segment carries its walk counter for {e every} round it ever
    executed (the infinite strip of coins, one location per round,
    exactly what §4 compresses away).  So it differs from {!Ads89} only
    where the strip does:
    - a leader is a process at the maximal round, and "trails me by K"
      is a round difference;
    - a round advance is round + 1 with one more counter;
    - the round coin is the sum of every process's counter for my
      round, with no overflow escape;
    - a walk step is unclamped, and the largest magnitude is tracked;
    - [state_bits] is the grown maximum, so the widths of [space]
      (payload plus the handshake toggle) grow with it.

    Expected polynomial time, like the paper's protocol, but register
    size grows linearly with the round number reached, and adversarial
    scheduling can push it arbitrarily high (experiment E6). *)

val payload_bits : rounds:int -> counter_bits:int -> int
(** Width of the unbounded strip's payload once [rounds] rounds have
    been entered with [counter_bits]-bit walk counters: the preference,
    the round number and one counter per round. *)

module Make_batched (R : Bprc_runtime.Runtime_intf.BATCHED) :
  Consensus_intf.S
(** The baseline over the §2 handshake snapshot of the given runtime. *)
