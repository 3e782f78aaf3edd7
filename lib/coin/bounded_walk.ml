type verdict = Heads | Tails | Undecided

let bounds ~delta ~m ~n =
  if delta <= 0 then invalid_arg "Bounded_walk: delta must be positive";
  let threshold = delta * n in
  let m = match m with Some m -> m | None -> 4 * threshold * threshold in
  if m <= threshold then invalid_arg "Bounded_walk: m must exceed the barrier";
  (threshold, m)

let overflowed ~m c = c < -m || c > m

let barrier ~threshold sum =
  if sum > threshold then Heads
  else if sum < -threshold then Tails
  else Undecided

let step ~m c move =
  let c = c + move in
  if c > m + 1 then m + 1 else if c < -m - 1 then -m - 1 else c

module Make (R : Bprc_runtime.Runtime_intf.S) = struct
  module Snap = Bprc_snapshot.Handshake.Make (R)

  type t = {
    mem : int Snap.t;
    views : int array array;
        (** per-pid scan buffers: slot [p] is refilled only by process
            [p]'s own next scan, so a view survives [p]'s yields *)
    m : int;
    mutable steps : int;
    mutable overflow_count : int;
    probe : Coin_probe.t;
  }

  let create ?(delta = 2) ?m () =
    let threshold, m = bounds ~delta ~m ~n:R.n in
    {
      mem = Snap.create ~name:"coin" ~init:0 ();
      views = Array.init R.n (fun _ -> Array.make R.n 0);
      m;
      steps = 0;
      overflow_count = 0;
      probe = Coin_probe.create ~n:R.n ~threshold;
    }

  let flip t =
    let me = R.pid () in
    let view = t.views.(me) in
    let rec loop () =
      Snap.scan_into t.mem view;
      if overflowed ~m:t.m view.(me) then begin
        t.overflow_count <- t.overflow_count + 1;
        true
      end
      else
        match
          barrier ~threshold:t.probe.threshold (Array.fold_left ( + ) 0 view)
        with
        | Heads -> true
        | Tails -> false
        | Undecided ->
          let move = if R.flip () then 1 else -1 in
          let c = step ~m:t.m view.(me) move in
          t.probe.pending.(me) <- move;
          Snap.write t.mem c;
          t.probe.published.(me) <- c;
          t.probe.pending.(me) <- 0;
          t.steps <- t.steps + 1;
          loop ()
    in
    loop ()

  let total_walk_steps t = t.steps
  let overflows t = t.overflow_count
  let probe t = t.probe
end
