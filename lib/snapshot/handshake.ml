(* Flat representation of the §2.2 handshake object: its n(n-1) arrows
   are one [bool R.reg array] in [Reg_names.arrow] order, and the two
   collects of a scan land in preallocated per-scanner cell buffers, so
   a retry allocates nothing.  Each operation's reads and writes, in
   order, are those of the pre-rewrite implementation frozen in
   [test/oracles/handshake_ref.ml]; only register ids differ, as the
   oracle also allocates the n diagonal arrows. *)

module Make_batched (R : Bprc_runtime.Runtime_intf.BATCHED) = struct
  type 'a cell = { value : 'a; toggle : bool }

  type 'a t = {
    values : 'a cell R.reg array;  (** [values.(j)] written by process j *)
    arrows : bool R.reg array;
        (** arrow [(i, j)]: cleared by scanner i, set by writer j *)
    my_value : 'a array;  (** writer-local copy of own latest value *)
    my_toggle : bool array;  (** writer-local toggle state *)
    v1 : 'a cell array array;  (** per-scanner first-collect buffers *)
    v2 : 'a cell array array;  (** per-scanner second-collect buffers *)
    mutable retries : int;
  }

  (* [rows.(i)]: the arrows scanner [i] clears and reads back; [cols.(j)]:
     those writer [j] raises — indices into [arrows], over the other
     processes ascending, shared by every instance of this application. *)
  let rows, cols =
    let n = R.n in
    let others p f =
      Array.init (n - 1) (fun k -> f (if k < p then k else k + 1))
    in
    ( Array.init n (fun i -> others i (fun j -> Reg_names.arrow n i j)),
      Array.init n (fun j -> others j (fun i -> Reg_names.arrow n i j)) )

  let create ?(name = "snap") ~init () =
    let value_names = Reg_names.values name R.n
    and arrow_names = Reg_names.arrows name R.n in
    let cell0 = { value = init; toggle = false } in
    (* Allocation order is register id order: arrows, then values. *)
    let arrows = Array.map (fun name -> R.make_reg ~name false) arrow_names in
    let values = Array.map (fun name -> R.make_reg ~name cell0) value_names in
    {
      values;
      arrows;
      my_value = Array.make R.n init;
      my_toggle = Array.make R.n false;
      v1 = Array.init R.n (fun _ -> Array.make R.n cell0);
      v2 = Array.init R.n (fun _ -> Array.make R.n cell0);
      retries = 0;
    }

  let write t v =
    let me = R.pid () in
    (* Only this process's own scans read [my_toggle] and [my_value],
       and it cannot scan while it writes: they may change before the
       first access. *)
    let toggle = not t.my_toggle.(me) in
    t.my_toggle.(me) <- toggle;
    t.my_value.(me) <- v;
    (* Raise every scanner's arrow before publishing: a scan that
       started earlier and has not yet checked arrows will restart. *)
    R.update t.arrows cols.(me) t.values.(me) { value = v; toggle }

  (* The register reads/writes and their order are exactly [scan]'s of
     the pre-rewrite implementation; only the final materialization of
     the view changed from [Array.init] to filling [out], so a process
     that reuses a per-pid view buffer scans without allocating.  The
     arrow read-back runs before the comparison of the two collects
     rather than interleaved with it: the comparison reads only local
     buffers, so the accesses and their values are the same. *)
  let scan_into t out =
    let me = R.pid () in
    let n = R.n in
    if Array.length out <> n then
      invalid_arg "Handshake.scan_into: view buffer must have length n";
    let v1 = t.v1.(me) and v2 = t.v2.(me) and mine = rows.(me) in
    let rec attempt () =
      let dirty = ref (R.scan_attempt t.arrows mine t.values ~skip:me v1 v2) in
      for j = 0 to n - 1 do
        (* Physically equal cells cannot differ: test identity before
           the polymorphic compare, which also keeps a NaN value from
           looking changed against itself. *)
        let a = v1.(j) and b = v2.(j) in
        if j <> me && a != b && (a.toggle <> b.toggle || a.value <> b.value)
        then dirty := true
      done;
      if !dirty then begin
        t.retries <- t.retries + 1;
        attempt ()
      end
      else
        for j = 0 to n - 1 do
          out.(j) <- (if j = me then t.my_value.(me) else v2.(j).value)
        done
    in
    attempt ()

  let scan t =
    let out = Array.make R.n t.my_value.(R.pid ()) in
    scan_into t out;
    out

  let scan_retries t = t.retries

  let space ~value_bits t =
    let entry group regs bits_per_register =
      Bprc_space.Space.entry ~group ~registers:(Array.length regs)
        ~bits_per_register
    in
    [ entry "values" t.values (value_bits + 1); entry "arrows" t.arrows 1 ]
end

module Make (R : Bprc_runtime.Runtime_intf.S) =
  Make_batched (Bprc_runtime.Runtime_intf.Loop (R))
