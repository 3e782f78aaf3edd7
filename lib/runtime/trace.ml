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
let iter = Bprc_util.Vec.iter
let to_list = Bprc_util.Vec.to_list
let clear = Bprc_util.Vec.clear
