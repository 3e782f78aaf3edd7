type 'op event = {
  pid : int;
  start_time : int;
  finish_time : int;
  op : 'op;
}

type 'op t = { events : 'op event Bprc_util.Vec.t; mutable counter : int }

let create () = { events = Bprc_util.Vec.create (); counter = 0 }

let stamp t =
  t.counter <- t.counter + 1;
  t.counter

let record t ~pid ~start_time ~finish_time op =
  if finish_time < start_time then
    invalid_arg "Hist.record: finish before start";
  Bprc_util.Vec.push t.events { pid; start_time; finish_time; op }

let events t = Bprc_util.Vec.to_list t.events
let events_array t = Bprc_util.Vec.to_array t.events

(* Keeps the backing array: histories cleared between explored runs are
   scratch, and re-growing the event vector per run is exactly the
   allocation the reuse is there to avoid. *)
let clear t =
  Bprc_util.Vec.truncate t.events 0;
  t.counter <- 0

let precedes a b = a.finish_time < b.start_time

let pp_event pp_op ppf e =
  Fmt.pf ppf "p%d:%a[%d,%d]" e.pid pp_op e.op e.start_time e.finish_time
