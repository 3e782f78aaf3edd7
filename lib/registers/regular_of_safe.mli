(** Lamport's construction of a {e regular} bit from a {e safe} bit:
    the writer skips the physical write when the value is unchanged, so
    every actual write changes the bit, and an overlapped read's
    arbitrary answer is necessarily one of \{old, new\}.

    The bit is a plain register of [R]; it is safe when [R] makes it
    so, e.g. a runtime weakened by
    [Bprc_faults.Inject.weaken_runtime ~plan:[Weaken {index = -1;
    semantics = Safe}]].  Over atomic registers the construction is
    trivially regular. *)

module Make (R : Bprc_runtime.Runtime_intf.S) : sig
  type t

  val make : ?name:string -> init:bool -> unit -> t
  val read : t -> bool
  val write : t -> bool -> unit
end
