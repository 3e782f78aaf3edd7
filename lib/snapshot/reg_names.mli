(** Register names of the snapshot objects, memoized per domain on the
    base name and [n].  The returned arrays are shared: never mutate
    them. *)

val values : string -> int -> string array
(** [values name n].(j) is ["name.Vj"], the register process [j]
    writes its segment to. *)

val arrows : string -> int -> string array
(** [arrows name n].(i*n + j) is ["name.Ai.j"], the handshake's arrow
    between scanner [i] and writer [j]. *)
