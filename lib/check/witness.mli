(** Replayable counterexample files: one JSON codec for the schedules
    both counterexample searches save — [bprc check]'s witnesses (this
    module) and [bprc hunt]'s scripts ({!Script}).

    A file is its [kind] and [version] tags, the search's own header
    fields, then the schedule: [choices], [flips], [failure], [clock],
    in that order.  {!Make} supplies the tags and the schedule; an
    instance adds only its header.  Decoding rejects a negative choice,
    so a loaded schedule is one the replayers can index with. *)

module type HEADER = sig
  type t

  val kind : string
  (** The JSON ["kind"] discriminator. *)

  val noun : string
  (** Names the file in the wrong-kind error, e.g. ["check witness"]. *)

  val what : string
  (** Prefixes every decode error, e.g. ["witness"]. *)

  val to_fields : t -> (string * Bprc_util.Json.t) list
  val of_json : Bprc_util.Json.t -> (t, string) result
end

module type S = sig
  type header
  type t = { header : header; schedule : Explorer.witness }

  val to_string : t -> string
  val of_string : string -> (t, string) result
  val save : path:string -> t -> unit
  val load : path:string -> (t, string) result
end

module Make (H : HEADER) : S with type header = H.t

val positive :
  what:string -> Bprc_util.Json.t -> string -> (int, string) result
(** A header field that must be an integer [>= 1] (a process count or
    a step bound). *)

(** {1 Check witnesses} *)

type header = {
  config : string;  (** registry name of the explored configuration *)
  n : int;
  max_steps : int;
}

include S with type header := header
