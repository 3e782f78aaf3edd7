(** Lamport's construction of a [k]-valued regular register from [k]
    regular bits, in unary encoding.

    The value is the index of the lowest set bit.  [write v] sets bit
    [v] and then clears bits [v-1 .. 0] downwards; [read] scans upwards
    and returns the first set bit it sees.  Writes cost at most [v+1]
    bit-writes, reads at most [k] bit-reads.  Each bit is a
    {!Regular_of_safe} bit, so over a runtime whose registers are safe
    the [k]-valued register is still regular. *)

module Make (R : Bprc_runtime.Runtime_intf.S) : sig
  type t

  val make : ?name:string -> k:int -> init:int -> unit -> t
  (** @raise Invalid_argument unless [0 <= init < k] and [k > 0]. *)

  val read : t -> int
  val write : t -> int -> unit
end
