(** Minimal JSON document type, emitter and parser (no external
    dependency).

    Used by {!Bprc_harness.Table}/[Report] for the bench-report files,
    and by [Bprc_check.Witness] for counterexample files (check
    witnesses and hunt scripts), which must round-trip through disk
    bit-identically. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite values serialize as [null] *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering with full string escaping. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed).  Numbers
    without ['.']/['e'] parse as [Int], others as [Float]. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** [member k (Obj kvs)] is the value bound to [k], if any; [None] on
    non-objects. *)

val to_int_opt : t -> int option
(** [Int], or [Float] with integral value. *)

val to_string_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option

(** {1 Documents and files}

    Decoders for the fields of a saved document.  [what] names the
    document in error messages, e.g. ["witness: missing or ill-typed
    field \"n\""]. *)

val field :
  what:string -> t -> string -> (t -> 'a option) -> ('a, string) result
(** [field ~what j k conv] is [conv] applied to member [k] of [j];
    [Error] when the member is missing or [conv] rejects it. *)

val list_field :
  what:string ->
  t ->
  string ->
  (t -> 'a option) ->
  bad:string ->
  ('a list, string) result
(** [list_field ~what j k conv ~bad] decodes member [k] of [j] as an
    array whose every element [conv] accepts; a rejected element is
    [Error (what ^ ": " ^ bad)]. *)

val save : path:string -> t -> unit
(** Write the compact rendering of a value and a newline to [path]. *)

val load : path:string -> (t, string) result
(** Read and parse the whole file at [path]; an unreadable file is an
    [Error] carrying the [Sys_error] message. *)
