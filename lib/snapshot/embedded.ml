module type S = sig
  include Snapshot_intf.S

  val borrows : 'a t -> int
  val max_seq : 'a t -> int
end

module Make_batched (R : Bprc_runtime.Runtime_intf.BATCHED) = struct
  type 'a cell = {
    mutable value : 'a;
    mutable seq : int;
    view : 'a array;  (** the scan embedded in this update *)
  }
  (* [value]/[seq] are mutable only for the per-process self cell,
     which is process-local and updated in place by [write].  A cell
     published through a register is never mutated afterwards — other
     scanners hold references to it (and may borrow its [view]). *)

  type 'a t = {
    cells : 'a cell R.reg array;
    my_value : 'a array;
    my_seq : int array;
    self_cells : 'a cell array;
        (* self_cells.(p): p's own component, updated in place by p's
           [write] instead of allocating a cell per collect (or per
           write); distinct records per process, never shared *)
    collect_first : 'a cell array array;
    collect_a : 'a cell array array;
    collect_b : 'a cell array array;
        (* per-scanner collect buffers: the first collect of a scan plus
           two buffers the retry loop alternates between (the previous
           collect must stay readable while the next one fills).  Scans
           by different processes interleave, so the buffers are indexed
           by pid; reusing them makes a collect allocation-free. *)
    moved_once : bool array array;
    mutable retries : int;
    mutable borrow_count : int;
  }

  let create ?(name = "esnap") ~init () =
    let cell0 = { value = init; seq = 0; view = [||] } in
    let buffers () = Array.init R.n (fun _ -> Array.make R.n cell0) in
    {
      cells =
        Array.init R.n (fun j ->
            R.make_reg
              ~name:(Printf.sprintf "%s.V%d" name j)
              { value = init; seq = 0; view = Array.make R.n init });
      my_value = Array.make R.n init;
      my_seq = Array.make R.n 0;
      self_cells =
        Array.init R.n (fun _ -> { value = init; seq = 0; view = [||] });
      collect_first = buffers ();
      collect_a = buffers ();
      collect_b = buffers ();
      moved_once = Array.init R.n (fun _ -> Array.make R.n false);
      retries = 0;
      borrow_count = 0;
    }

  (* Fill [out] with one collect: one batch of ascending reads, the
     register-read order (and hence the simulated schedule) of the
     [Array.init] it replaces. *)
  let collect_into t me out =
    out.(me) <- t.self_cells.(me);
    R.collect t.cells ~skip:me out

  (* Compare collect [cur] against [prev] (and the scan's [first]),
     updating [moved_once].  The verdict is a plain int so the retry
     loop allocates nothing:
       -2       every component agrees: [cur] is a direct view
       -1       some writer moved, none borrowable yet: collect again
       j >= 0   writer [j] moved twice since [first]: borrow its
                embedded view (the last such [j] wins, matching the
                order the original option-accumulating loop produced)
     The accumulator keeps a borrow verdict once found, and [moved_once]
     is updated for every moved component either way. *)
  let rec verdict first prev cur moved_once j acc =
    if j >= R.n then acc
    else
      let acc =
        if cur.(j).seq <> prev.(j).seq then
          if cur.(j).seq <> first.(j).seq && moved_once.(j) then j
          else begin
            moved_once.(j) <- true;
            if acc = -2 then -1 else acc
          end
        else acc
      in
      verdict first prev cur moved_once (j + 1) acc

  (* The retry loop, with all state in arguments: no closure, no refs,
     no allocation beyond the simulator's own per-step cost. *)
  let rec scan_attempt t me first moved_once out prev =
    let cur =
      if prev == t.collect_a.(me) then t.collect_b.(me) else t.collect_a.(me)
    in
    collect_into t me cur;
    let v = verdict first prev cur moved_once 0 (-2) in
    if v = -2 then begin
      for j = 0 to R.n - 1 do
        out.(j) <- cur.(j).value
      done;
      (* My own component is mine to report. *)
      out.(me) <- t.my_value.(me)
    end
    else begin
      t.retries <- t.retries + 1;
      if v >= 0 then begin
        (* [v] moved at least twice since the scan began: its latest
           embedded view lies entirely within our interval.  Published
           views always have length [R.n] (and [v <> me], the only pid
           whose collect entry is a viewless self cell: a process does
           not write during its own scan). *)
        t.borrow_count <- t.borrow_count + 1;
        Array.blit cur.(v).view 0 out 0 R.n;
        out.(me) <- t.my_value.(me)
      end
      else scan_attempt t me first moved_once out cur
    end

  let scan_into t out =
    if Array.length out <> R.n then
      invalid_arg "Embedded.scan_into: view buffer must have length n";
    let me = R.pid () in
    let first = t.collect_first.(me) in
    collect_into t me first;
    let moved_once = t.moved_once.(me) in
    Array.fill moved_once 0 R.n false;
    scan_attempt t me first moved_once out first

  let scan t =
    let out = Array.make R.n t.my_value.(R.pid ()) in
    scan_into t out;
    out

  let write t v =
    let me = R.pid () in
    (* Scan with the OLD own value still in place: the embedded view
       must predate this write. *)
    let view = scan t in
    let seq = t.my_seq.(me) + 1 in
    t.my_seq.(me) <- seq;
    t.my_value.(me) <- v;
    let sc = t.self_cells.(me) in
    sc.value <- v;
    sc.seq <- seq;
    R.write t.cells.(me) { value = v; seq; view }

  let scan_retries t = t.retries
  let borrows t = t.borrow_count
  let max_seq t = Array.fold_left max 0 t.my_seq

  let space ~value_bits _t =
    (* One register per process holding (value, seq, embedded n-view);
       the sequence number is unbounded — accounted at the machine
       word's 63 bits. *)
    [
      Bprc_space.Space.entry ~group:"cells" ~registers:R.n
        ~bits_per_register:(value_bits + 63 + (R.n * value_bits));
    ]
end

module Make (R : Bprc_runtime.Runtime_intf.S) =
  Make_batched (Bprc_runtime.Runtime_intf.Loop (R))
