(** Machine-readable experiment reports ([bprc experiment --json FILE]).

    One report captures a whole [bprc experiment] run: every
    experiment's table (with numeric cells as JSON numbers), its wall
    time, automatic per-column sample summaries (median, ci95, …) and
    the worker count.  See EXPERIMENTS.md for the schema and how to
    compare two files. *)

type entry = {
  table : Table.t;
  wall_s : float;  (** wall-clock seconds for this experiment *)
}

type t = {
  date : string;  (** ISO-8601 UTC timestamp of the run *)
  workers : int;
  quick : bool;
  total_wall_s : float;
  entries : entry list;
}

val schema_version : int

val iso8601 : float -> string
(** Render a Unix timestamp as [YYYY-MM-DDThh:mm:ssZ]. *)

val column_summaries : Table.t -> (string * Stats.summary) list
(** Per-column descriptive statistics over the rows whose cell in that
    column parses as a finite number; columns with no numeric cells are
    omitted. *)

val to_json : t -> Bprc_util.Json.t
val to_string : t -> string

val write : path:string -> t -> unit
(** Serialize to [path] (trailing newline included). *)
