(** The paper's bounded scannable memory (§2.2).

    Layout: one SWMR atomic register [V_i] per process holding
    [(value, toggle)] — the toggle bit alternates between consecutive
    writes by the same process, as in the paper — plus one two-writer
    arrow register [A.(i).(j)] for each scanner [i] and writer [j ≠ i],
    n(n-1) in all, cleared by [i] ("arrow away") and set by [j] ("arrow
    towards any possibly-scanning process").

    [write v] by [j]: set [A.(i).(j)] for every [i ≠ j], then publish
    [(v, toggle)] in [V_j].

    [scan] by [i]: clear [A.(i).(j)] for all [j ≠ i]; collect all [V_j]
    twice; read back [A.(i).(j)]; if some arrow is set or the two
    collects differ, restart; otherwise the second collect is a
    snapshot.  Everything is bounded: per process the extra state is
    one toggle bit and [n - 1] arrow bits. *)

module Make_batched (_ : Bprc_runtime.Runtime_intf.BATCHED) : Snapshot_intf.S
(** The one implementation.  A write is one
    {!Bprc_runtime.Runtime_intf.BATCHED.update} (arrow raises, then the
    value) and each scan attempt one
    {!Bprc_runtime.Runtime_intf.BATCHED.scan_attempt} (arrow clears,
    two collects, arrow read-back), so over [Sim.batched] every
    operation attempt is one fiber suspension at any [n >= 2]. *)

module Make (_ : Bprc_runtime.Runtime_intf.S) : Snapshot_intf.S
(** [Make_batched] over {!Bprc_runtime.Runtime_intf.Loop}: the same
    accesses, one at a time. *)
