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
  decided : bool option array;  (** per process *)
  rounds_at_decision : int array;  (** raw round at decision, -1 if none *)
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
    ?record_scans:bool ->
    unit ->
    t
  (** [record_scans] turns on the checker-level scan recorder consumed
      by {!Virtual_rounds} (§6.1); off by default.  Only the bounded
      strip's edge rows mean anything to that checker. *)

  val run : t -> input:bool -> bool
  (** Execute the protocol as the calling process; returns the decided
      value.  Wait-free with probability 1 under [Shared_walk]. *)

  val stats : t -> stats

  val state_bits : t -> int
  (** Bits of protocol state per segment, the payload width [space]
      charges each value.  Over the bounded strip it is constant over
      any execution (the paper's headline); over the unbounded strip it
      is the maximum grown so far. *)

  val register_bits : t -> int
  (** One segment's width as reported per run.  Over the bounded strip:
      [state_bits] plus the handshake toggle, the static bound.  Over
      the unbounded strip: [state_bits] alone, the grown maximum
      without the toggle. *)

  val space : t -> Bprc_space.Space.t
  (** Full shared-memory space report: the underlying scannable
      memory's register groups with [state_bits] as the value width.
      Checker-side ghost fields are excluded. *)

  val coin_probe : t -> Bprc_coin.Coin_probe.t
  (** Meta-level view of the per-round coin counters, for the
      full-information adaptive adversaries of the harness.  Live: the
      one record tracks the run. *)

  val recorded_scans : t -> Virtual_rounds.obs list
  (** The scans observed so far (empty unless [record_scans]), in
      completion order; feed to {!Virtual_rounds.check}. *)
end
