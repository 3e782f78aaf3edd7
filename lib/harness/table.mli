(** Aligned text tables (and CSV / JSON) for experiment output. *)

type t = {
  id : string;  (** experiment identifier, e.g. "E2" *)
  title : string;
  columns : string list;
  rows : string list list;
  notes : string list;  (** free-form lines printed under the table *)
  metrics : (string * float) list;
      (** headline scalars (slopes, ratios …) carried alongside the
          rendered rows for machine-readable reports *)
}

val make :
  id:string -> title:string -> columns:string list ->
  ?notes:string list -> ?metrics:(string * float) list ->
  string list list -> t

val render : t -> string
(** The table with its title and notes, each column padded to its
    widest cell by display width: UTF-8 code points, not bytes. *)

val print : t -> unit
val to_csv : t -> string

val to_json : t -> Bprc_util.Json.t
(** The table as an object; cells that parse as numbers are emitted as
    JSON numbers, all others as strings. *)

val fmt_float : float -> string
(** Compact numeric formatting: integers without decimals, small values
    with 3 significant decimals. *)

val fmt_int : int -> string
