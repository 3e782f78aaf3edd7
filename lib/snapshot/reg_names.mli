(** Register names of the snapshot objects, memoized per domain on the
    base name and [n].  The returned arrays are shared: never mutate
    them. *)

val values : string -> int -> string array
(** [values name n].(j) is ["name.Vj"], the register process [j]
    writes its segment to. *)

val arrow : int -> int -> int -> int
(** [arrow n i j], [i <> j], is the index of the handshake's arrow
    between scanner [i] and writer [j]: row-major over the n(n-1)
    off-diagonal pairs, the one statement of the arrows' order. *)

val arrows : string -> int -> string array
(** [arrows name n].(arrow n i j) is ["name.Ai.j"]. *)
