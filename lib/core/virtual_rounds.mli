(** Virtual global rounds (§6.1) — the paper's proof device, as a
    runtime checker.

    P3 serializes all scan executions; along that serialization each
    process is assigned a {e virtual global round}: initially 0; when
    one of the previous scan's leaders has moved (its edge row changed),
    everyone is placed relative to the moved leader at [max+1];
    otherwise relative to an old leader at [max].  The paper's key
    structural facts, checked here on recorded executions:

    - the serialization exists: scan views (per-writer write counts)
      are totally ordered componentwise — P3 lifted to the
      consensus protocol's own scans;
    - each process's virtual round is non-decreasing along the
      serialization, {e even at scans the process did not perform}. *)

type obs = {
  spid : int;  (** scanning process *)
  writes : int array;  (** per-writer write counts in the view *)
  rows : Bytes.t array;
      (** edge-counter rows in the view, one byte per counter *)
}

type report = {
  scans_checked : int;
  max_virtual_round : int;
  final_rounds : int array;
}

val check : k:int -> n:int -> obs list -> (report, string) result
(** Serialize the observations (failing if two views are incomparable —
    a P3 violation), then compute virtual rounds per the §6.1 induction
    and verify monotonicity.  [k] is the strip constant. *)
