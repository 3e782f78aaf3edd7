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
    buf : 'a cell array array;
        (* buf.(p): the one buffer p's collects fill, allocation-free.
           It points at freshly published cells, so it lives with the
           instance: kept longer, it would be promoted and put every
           collect's stores through the write barrier. *)
    mutable retries : int;
    mutable borrow_count : int;
  }

  (* A scan's pointer-free bookkeeping, by pid: the [seq]s of its first
     and previous collects, and the writers seen moving once.  One copy
     serves every instance of the application: a process scans one
     object at a time, and a scan overwrites its rows as it starts. *)
  let first_seq = Array.init R.n (fun _ -> Array.make R.n 0)
  let prev_seq = Array.init R.n (fun _ -> Array.make R.n 0)
  let moved_once = Array.init R.n (fun _ -> Array.make R.n false)

  let create ?(name = "esnap") ~init () =
    (* Published cells are never mutated: all registers share one. *)
    let cell0 = { value = init; seq = 0; view = Array.make R.n init } in
    let names = Reg_names.values name R.n in
    {
      cells = Array.init R.n (fun j -> R.make_reg ~name:names.(j) cell0);
      my_value = Array.make R.n init;
      my_seq = Array.make R.n 0;
      self_cells =
        Array.init R.n (fun _ -> { value = init; seq = 0; view = [||] });
      buf = Array.init R.n (fun _ -> Array.make R.n cell0);
      retries = 0;
      borrow_count = 0;
    }

  (* One collect into [out]: one batch of ascending reads. *)
  let collect_into t me out =
    out.(me) <- t.self_cells.(me);
    R.collect t.cells ~skip:me out

  (* Compare collect [cur] against the previous one's [seq]s [prev]
     (and the scan's first, [first]), updating [moved] and moving
     [cur]'s [seq]s into [prev].  The verdict is a plain int so the
     retry loop allocates nothing:
       -2       every component agrees: [cur] is a direct view
       -1       some writer moved, none borrowable yet: collect again
       j >= 0   writer [j] moved twice since [first]: borrow its
                embedded view (the last such [j] wins)
     The accumulator keeps a borrow verdict once found, and [moved] is
     updated for every moved component either way. *)
  let rec verdict first prev cur moved j acc =
    if j >= R.n then acc
    else
      let s = cur.(j).seq in
      let acc =
        if s <> prev.(j) then begin
          prev.(j) <- s;
          if s <> first.(j) && moved.(j) then j
          else begin
            moved.(j) <- true;
            if acc = -2 then -1 else acc
          end
        end
        else acc
      in
      verdict first prev cur moved (j + 1) acc

  (* The retry loop, with all state in arguments: no closure, no refs,
     no allocation beyond the simulator's own per-step cost. *)
  let rec scan_attempt t me buf first prev moved out =
    collect_into t me buf;
    let v = verdict first prev buf moved 0 (-2) in
    if v = -2 then begin
      for j = 0 to R.n - 1 do
        out.(j) <- buf.(j).value
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
        Array.blit buf.(v).view 0 out 0 R.n;
        out.(me) <- t.my_value.(me)
      end
      else scan_attempt t me buf first prev moved out
    end

  let scan_into t out =
    if Array.length out <> R.n then
      invalid_arg "Embedded.scan_into: view buffer must have length n";
    let me = R.pid () in
    let buf = t.buf.(me) and first = first_seq.(me) and prev = prev_seq.(me) in
    collect_into t me buf;
    for j = 0 to R.n - 1 do
      first.(j) <- buf.(j).seq;
      prev.(j) <- buf.(j).seq
    done;
    let moved = moved_once.(me) in
    Array.fill moved 0 R.n false;
    scan_attempt t me buf first prev moved out

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
