(** The command-line tokens of one configuration axis, beside its type:
    the CLI parses through it, and reports read tokens from it. *)

type 'a t = { noun : string; tokens : (string * 'a) list }
(** Each token with the value it names, a value's first token before
    its aliases; [noun] names the axis in a refusal. *)

val parse : 'a t -> string -> ('a, string) result
(** The value a token names, or ["unknown <noun> <token>"]. *)

val token : 'a t -> 'a -> string
(** A value's first token.  @raise Not_found if none names it. *)
