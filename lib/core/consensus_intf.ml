(** Signature of the §5 consensus protocol implementations: every
    instance of the one §5 loop ({!Ads89.Over_strip}), over the bounded
    strip (the paper's configuration and its snapshot-ablated variants)
    or the unbounded one ({!Ah88}). *)

type coin_mode =
  | Shared_walk
      (** the strip's shared walk — polynomial: the paper's bounded
          coin over the bounded strip, the unbounded walk over the
          unbounded one *)
  | Local_flips  (** private flips, Abrahamson-class — exponential *)
  | Oracle_shared  (** perfect per-round shared coin — best case *)

type stats = {
  scans : int;
  writes : int;
  walk_steps : int;
  max_raw_round : int;  (** true (meta-level, unbounded) round reached *)
  inconsistent_reconstructions : int;
      (** position reconstructions of the strip's decoded graph that
          found no token positions producing it, that is, corrupt
          graph fills that were queried
          ({!Bprc_strip.Distance_graph.inconsistent}); 0 over the
          unbounded strip *)
}

module type S = sig
  type t

  val create :
    ?name:string ->
    ?params:Params.t ->
    ?coin_mode:coin_mode ->
    ?oracle_seed:int ->
    unit ->
    t

  val run : t -> input:bool -> bool
  (** Execute the protocol as the calling process; returns the decided
      value.  Wait-free with probability 1 under [Shared_walk]. *)

  val stats : t -> stats

  val state_bits : t -> int
  (** Bits of protocol state per segment, the payload width [space]
      charges each value.  Over the bounded strip it is constant over
      any execution (the paper's headline); over the unbounded strip it
      is the maximum grown so far. *)

  val space : t -> Bprc_space.Space.t
  (** Full shared-memory space report: the underlying scannable
      memory's register groups with [state_bits] as the value width.
      It is the one source of register widths: a register's width is
      its group's [bits_per_register], payload plus the snapshot's own
      control bits (the handshake's toggle, the embedded snapshot's
      sequence number and view), and
      {!Bprc_space.Space.max_register_bits} is the widest.  A segment
      holds only the protocol's state, so nothing published is left
      out. *)

  val coin_probe : t -> Bprc_coin.Coin_probe.t
  (** Meta-level view of the per-round coin counters, for the
      full-information adaptive adversaries of the harness.  Live: the
      one record tracks the run. *)
end
