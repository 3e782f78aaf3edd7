(* Spans of the traced run: name, start, end, the span that caused it,
   and the ticket, run or decision it belongs to.  They live in arrays
   allocated before the run, any domain may record into its own slots,
   and they are written out when the run ends.  Work finer than one
   instance or run is tallied in counters instead. *)

let names =
  [| "sample"; "submit"; "next_decided"; "dispatch"; "replay"; "batch";
     "instance"; "search"; "decision" |]

let sample = 0
let submit = 1
let next_decided = 2
let dispatch = 3
let replay = 4
let batch = 5
let instance = 6
let search = 7
let decision = 8

type t = {
  name : int array;
  parent : int array;
  id : int array;
  start : int array;
  stop : int array;
  next : int Atomic.t;
}

let create ~capacity =
  {
    name = Array.make capacity 0;
    parent = Array.make capacity (-1);
    id = Array.make capacity (-1);
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    next = Atomic.make 0;
  }

let capacity t = Array.length t.name

(* Returns the span's index, the handle [close] and children take; -1
   once the arrays are full (the span is counted as dropped). *)
let open_ t ~name ~parent ~id =
  let i = Atomic.fetch_and_add t.next 1 in
  if i >= capacity t then -1
  else begin
    t.name.(i) <- name;
    t.parent.(i) <- parent;
    t.id.(i) <- id;
    t.start.(i) <- Meter.now_ns ();
    t.stop.(i) <- -1;
    i
  end

let close t i = if i >= 0 then t.stop.(i) <- Meter.now_ns ()
let set_id t i id = if i >= 0 then t.id.(i) <- id
let recorded t = min (capacity t) (Atomic.get t.next)
let dropped t = max 0 (Atomic.get t.next - capacity t)
let duration t i = if t.stop.(i) < 0 then 0 else t.stop.(i) - t.start.(i)

type summary = { s_name : string; count : int; total_ns : int; self_ns : int }

(* Length of the union of [intervals]: children that ran in parallel
   on several workers cover their parent's interval only once. *)
let covered intervals =
  let sorted = List.sort compare intervals in
  let rec go acc hi = function
    | [] -> acc
    | (s, e) :: rest ->
      if e <= hi then go acc hi rest
      else go (acc + (e - max s hi)) e rest
  in
  go 0 min_int sorted

(* Per span name: how many, their total duration, and their self time —
   each span's duration minus the part of it its children cover. *)
let summarize t =
  let n = recorded t in
  let k = Array.length names in
  let count = Array.make k 0
  and total = Array.make k 0
  and self = Array.make k 0 in
  let children = Array.make n [] in
  for i = 0 to n - 1 do
    let p = t.parent.(i) in
    if p >= 0 && t.stop.(i) >= 0 then
      children.(p) <- (t.start.(i), t.stop.(i)) :: children.(p)
  done;
  for i = 0 to n - 1 do
    let d = duration t i in
    let nm = t.name.(i) in
    count.(nm) <- count.(nm) + 1;
    total.(nm) <- total.(nm) + d;
    self.(nm) <- self.(nm) + d - covered children.(i)
  done;
  List.filter_map
    (fun nm ->
      if count.(nm) = 0 then None
      else
        Some
          { s_name = names.(nm); count = count.(nm); total_ns = total.(nm);
            self_ns = self.(nm) })
    (List.init k Fun.id)

let to_json t =
  let module J = Bprc_util.Json in
  let n = recorded t in
  let t0 = if n = 0 then 0 else Array.fold_left min max_int (Array.sub t.start 0 n) in
  let col f = J.Arr (List.init n (fun i -> J.Int (f i))) in
  J.Obj
    [
      ("names", J.Arr (Array.to_list (Array.map (fun s -> J.Str s) names)));
      ("dropped", J.Int (dropped t));
      ("name", col (fun i -> t.name.(i)));
      ("parent", col (fun i -> t.parent.(i)));
      ("id", col (fun i -> t.id.(i)));
      ("start_ns", col (fun i -> t.start.(i) - t0));
      ("end_ns", col (fun i -> if t.stop.(i) < 0 then -1 else t.stop.(i) - t0));
    ]
