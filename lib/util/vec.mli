(** Growable array (OCaml 5.1 has no [Dynarray] yet). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** @raise Invalid_argument on out-of-bounds access. *)

val last : 'a t -> 'a option
val pop : 'a t -> 'a option
val clear : 'a t -> unit
(** Empty the vector and release its storage. *)

val truncate : 'a t -> int -> unit
(** [truncate t k] drops elements [k .. length t - 1] but keeps the
    backing array, so a vector reused as per-run scratch does not
    reallocate its capacity; the element at index 0 may stay pinned
    (use {!clear} to release storage).
    @raise Invalid_argument when [k] is negative or beyond the length. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val of_list : 'a list -> 'a t
