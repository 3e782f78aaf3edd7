module Make (R : Bprc_runtime.Runtime_intf.S) = struct
  module Snap = Bprc_snapshot.Handshake.Make (R)

  type t = {
    mem : int Snap.t;
    threshold : int;
    mutable steps : int;
    mutable max_mag : int;
  }

  let create_custom ?(name = "ucoin") ?(delta = 2) ~seed:_ () =
    if delta <= 0 then invalid_arg "Unbounded_walk: delta must be positive";
    {
      mem = Snap.create ~name ~init:0 ();
      threshold = delta * R.n;
      steps = 0;
      max_mag = 0;
    }

  let create ?name ~seed () = create_custom ?name ~seed ()

  let flip t =
    let me = R.pid () in
    let rec loop () =
      let view = Snap.scan t.mem in
      let sum = Array.fold_left ( + ) 0 view in
      if sum > t.threshold then true
      else if sum < -t.threshold then false
      else begin
        let delta = if R.flip () then 1 else -1 in
        let c = view.(me) + delta in
        Snap.write t.mem c;
        t.steps <- t.steps + 1;
        t.max_mag <- Int.max t.max_mag (abs c);
        loop ()
      end
    in
    loop ()

  let total_walk_steps t = t.steps
  let overflows _ = 0
  let max_counter_magnitude t = t.max_mag
end
