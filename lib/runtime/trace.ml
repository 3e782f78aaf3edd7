type kind =
  | Read
  | Write
  | Flip of bool
  | Step

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

let digest t =
  let buf = Buffer.create 4096 in
  iter
    (fun e ->
      Printf.bprintf buf "%d|%d|%d|%s|%s\n" e.time e.pid e.reg_id e.reg_name
        (match e.kind with
        | Read -> "R"
        | Write -> "W"
        | Flip b -> if b then "F1" else "F0"
        | Step -> "S"))
    t;
  Digest.to_hex (Digest.string (Buffer.contents buf))
