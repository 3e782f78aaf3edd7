(** Shared-memory space accounting (ROADMAP item: large-n frontier).

    The paper's headline is a {e bound}: no shared register ever grows.
    This module makes that bound a first-class, measurable quantity.
    Every shared-memory structure (handshake snapshot, embedded
    snapshot, the consensus protocols over them) reports the registers
    it allocates and their widths as a list of {!entry} groups; the
    harness surfaces the totals through bench rows and
    [bprc space-report].

    The accounting covers {e shared} state only: private per-process
    scratch buffers and meta-level counters (e.g. the true round
    number the [Ads89] coin probe keeps) are excluded — they are not
    part of what the adversary can observe nor of what the paper
    bounds. *)

type entry = {
  group : string;  (** structure/field family, e.g. ["values"] *)
  registers : int;  (** number of shared registers in the group *)
  bits_per_register : int;  (** width of each register, in bits *)
}

type t = entry list
(** A space report: disjoint register groups, in declaration order. *)

val entry : group:string -> registers:int -> bits_per_register:int -> entry
(** @raise Invalid_argument on negative [registers] or
    [bits_per_register]. *)

val scale : registers:int -> t -> t
(** [scale ~registers t] multiplies every group's register count — a
    per-process report lifted to [n] processes. *)

val prefix : string -> t -> t
(** [prefix p t] renames every group to ["p.group"] (composites). *)

val registers : t -> int
(** Total number of shared registers. *)

val max_register_bits : t -> int
(** Width of the widest register (0 for the empty report). *)

val total_bits : t -> int
(** Sum over groups of [registers * bits_per_register] — the total
    shared-memory footprint in bits. *)

val to_json : t -> Bprc_util.Json.t
(** [{"groups": [{"group": g; "registers": r; "bits_per_register": b;
    "bits": r*b}, ...], "registers": R, "max_register_bits": W,
    "total_bits": B}] — stable field order, pinned by cram. *)

val pp : Format.formatter -> t -> unit
(** Human-readable table: one line per group plus a totals line. *)
