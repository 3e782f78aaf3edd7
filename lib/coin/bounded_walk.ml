module Make (R : Bprc_runtime.Runtime_intf.S) = struct
  module Snap = Bprc_snapshot.Handshake.Make (R)

  type t = {
    mem : int Snap.t;
    views : int array array;
        (** per-pid scan buffers: slot [p] is refilled only by process
            [p]'s own next scan, so a view survives [p]'s yields *)
    threshold : int;  (** δ·n *)
    m : int;
    mutable steps : int;
    mutable overflow_count : int;
    shadow : int array;  (** checker-level counter values incl. pending step *)
    published : int array;  (** checker-level counter values as last written *)
  }

  let create_custom ?(name = "coin") ?(delta = 2) ?m ~seed:_ () =
    if delta <= 0 then invalid_arg "Bounded_walk: delta must be positive";
    let threshold = delta * R.n in
    let m = match m with Some m -> m | None -> 4 * threshold * threshold in
    if m <= threshold then invalid_arg "Bounded_walk: m must exceed the barrier";
    {
      mem = Snap.create ~name ~init:0 ();
      views = Array.init R.n (fun _ -> Array.make R.n 0);
      threshold;
      m;
      steps = 0;
      overflow_count = 0;
      shadow = Array.make R.n 0;
      published = Array.make R.n 0;
    }

  let create ?name ~seed () = create_custom ?name ~seed ()

  type verdict = Heads | Tails | Undecided

  let coin_value t view me =
    let own = view.(me) in
    if own < -t.m || own > t.m then begin
      t.overflow_count <- t.overflow_count + 1;
      Heads
    end
    else begin
      let sum = Array.fold_left ( + ) 0 view in
      if sum > t.threshold then Heads
      else if sum < -t.threshold then Tails
      else Undecided
    end

  let flip t =
    let me = R.pid () in
    let view = t.views.(me) in
    let rec loop () =
      Snap.scan_into t.mem view;
      match coin_value t view me with
      | Heads -> true
      | Tails -> false
      | Undecided ->
        (* walk_step: one local fair flip, counter clamped to the
           escape band ±(m+1). *)
        let delta = if R.flip () then 1 else -1 in
        let c =
          let c = view.(me) + delta in
          if c > t.m + 1 then t.m + 1
          else if c < -t.m - 1 then -t.m - 1
          else c
        in
        t.shadow.(me) <- c;
        Snap.write t.mem c;
        t.published.(me) <- c;
        t.steps <- t.steps + 1;
        loop ()
    in
    loop ()

  let total_walk_steps t = t.steps
  let overflows t = t.overflow_count
  let walk_value t = Array.fold_left ( + ) 0 t.shadow
  let published_walk_value t = Array.fold_left ( + ) 0 t.published
  let pending_direction t pid = t.shadow.(pid) - t.published.(pid)
end
