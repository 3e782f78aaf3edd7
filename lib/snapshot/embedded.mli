(** Wait-free scannable memory with {e embedded scans}
    (Afek–Attiya–Dolev–Gafni–Merritt–Shavit style, the successor of the
    paper's §2 object; unbounded sequence numbers).

    Every update first takes a scan and publishes it alongside the new
    value.  A scanner repeatedly collects; if two successive collects
    agree on every sequence number it returns the direct view, and
    otherwise some writer moved — a writer observed to move {e twice}
    performed an entire update inside the scan's interval, so its
    embedded view is a legal snapshot for the scanner to {e borrow}.
    After at most [n+1] collects one of the two cases must occur, so
    scans are {b wait-free} — unlike the handshake construction, whose
    scans can starve under saturating writers (and unlike it, updates
    here cost a full embedded scan rather than [n] cheap writes).

    Satisfies P1–P3 like the other implementations; kept with unbounded
    sequence numbers as a comparison point (the bounded version is the
    [DS89]-style construction the paper's bibliography points to). *)

module type S = sig
  include Snapshot_intf.S

  val borrows : 'a t -> int
  (** Scans resolved by borrowing an embedded view so far. *)

  val max_seq : 'a t -> int
  (** Largest sequence number issued (the unbounded component). *)
end

module Make_batched (_ : Bprc_runtime.Runtime_intf.BATCHED) : S
(** The one implementation: every collect is one batch
    ({!Bprc_runtime.Runtime_intf.BATCHED.collect}). *)

module Make (_ : Bprc_runtime.Runtime_intf.S) : S
(** [Make_batched] over {!Bprc_runtime.Runtime_intf.Loop}: the same
    reads, one at a time. *)
