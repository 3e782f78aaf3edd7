type kind =
  | Read
  | Write
  | Flip of bool
  | Step
  | Note of string

type event = {
  time : int;
  pid : int;
  reg_id : int;
  reg_name : string;
  kind : kind;
}

type t = event Bprc_util.Vec.t

let create () = Bprc_util.Vec.create ()
let record = Bprc_util.Vec.push
let length = Bprc_util.Vec.length
let get = Bprc_util.Vec.get

let last t =
  let n = length t in
  if n = 0 then None else Some (get t (n - 1))

let iter = Bprc_util.Vec.iter
let to_list = Bprc_util.Vec.to_list
let clear = Bprc_util.Vec.clear

let pp_kind ppf = function
  | Read -> Fmt.string ppf "read"
  | Write -> Fmt.string ppf "write"
  | Flip b -> Fmt.pf ppf "flip=%b" b
  | Step -> Fmt.string ppf "step"
  | Note s -> Fmt.pf ppf "note(%s)" s

let pp_event ppf e =
  Fmt.pf ppf "@[t=%d p%d %a %s#%d@]" e.time e.pid pp_kind e.kind e.reg_name
    e.reg_id
