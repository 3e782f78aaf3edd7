(* Flat representation: the n x n mod-3K counter matrix lives in one
   [Bytes.t], one unsigned byte per counter, indexed [i*n + j]
   (row-major, so a process's own row — the only part it writes — is
   one contiguous slice, and a published row is a [Bytes.t] of its
   own).  Counters lie in [0, 3K), so a byte holds them for K <=
   [Distance_graph.max_k].  The observable behavior is pinned against
   the frozen pre-rewrite copy in [test/oracles/edge_counters_ref.ml]
   by the differential property tests.

   On top of the matrix sits the incremental-refill bookkeeping of
   [to_graph_into]: which row each matrix row was last adopted
   from, which rows changed since the last decode, and the scratch
   graph (and its generation) that holds that decode. *)

type t = {
  kk : int;
  nn : int;
  e : Bytes.t;
  src : Bytes.t array;
      (** [src.(i)]: the row [i] was last adopted from by
          [set_row], or [no_row] when the row was written otherwise *)
  dirty : int array;
      (** the first [ndirty] entries: rows changed since the last decode *)
  mutable ndirty : int;
  is_dirty : Bytes.t;  (** ['\001'] at the rows listed in [dirty] *)
  mutable synced : Distance_graph.t option;
      (** the graph holding the decode of the matrix minus the dirty rows *)
  mutable synced_gen : int;  (** [synced]'s generation right after that decode *)
  mutable own : Distance_graph.t option;  (** [apply_inc]'s graph *)
  mutable full_refills : int;
  mutable incremental_refills : int;
  mutable rows_redecoded : int;
  mutable reuses : int;
}

(* Private to this module, so never physically equal to a row handed
   to [set_row] (not [Bytes.empty], which a caller may pass, and an
   empty row must still fail validation). *)
let no_row = Bytes.make 1 '\255'

let create ~k ~n =
  if k <= 0 || n <= 0 then invalid_arg "Edge_counters.create";
  if k > Distance_graph.max_k then
    invalid_arg "Edge_counters.create: k above 85 does not fit a byte";
  {
    kk = k;
    nn = n;
    e = Bytes.make (n * n) '\000';
    src = Array.make n no_row;
    dirty = Array.make n 0;
    ndirty = 0;
    is_dirty = Bytes.make n '\000';
    synced = None;
    synced_gen = 0;
    own = None;
    full_refills = 0;
    incremental_refills = 0;
    rows_redecoded = 0;
    reuses = 0;
  }

let mark_dirty t i =
  if Bytes.unsafe_get t.is_dirty i = '\000' then begin
    Bytes.unsafe_set t.is_dirty i '\001';
    t.dirty.(t.ndirty) <- i;
    t.ndirty <- t.ndirty + 1
  end

let clear_dirty t =
  for d = 0 to t.ndirty - 1 do
    Bytes.unsafe_set t.is_dirty t.dirty.(d) '\000'
  done;
  t.ndirty <- 0

(* In-place adoption of scanned rows: one scratch [t] per protocol
   instance absorbs a view per scan.  A row physically equal to the one
   last adopted at [i] is skipped outright: published rows are
   immutable, so it was validated and copied already. *)
let set_row t i r =
  if i < 0 || i >= t.nn then invalid_arg "Edge_counters.set_row: no such row";
  if r != Array.unsafe_get t.src i then begin
    if Bytes.length r <> t.nn then
      invalid_arg "Edge_counters.set_row: not square";
    for j = 0 to t.nn - 1 do
      if Bytes.get_uint8 r j >= 3 * t.kk then
        invalid_arg "Edge_counters.set_row: counter out of range"
    done;
    Bytes.blit r 0 t.e (i * t.nn) t.nn;
    t.src.(i) <- r;
    mark_dirty t i
  end

let set_rows t rows =
  if Array.length rows <> t.nn then
    invalid_arg "Edge_counters.set_rows: not square";
  for i = 0 to t.nn - 1 do
    set_row t i rows.(i)
  done

let k t = t.kk
let n t = t.nn
let row t i = Bytes.sub t.e (i * t.nn) t.nn
let rows t = Array.init t.nn (fun i -> row t i)

(* Every counter is in [0, 3K) (validated when adopted, kept there by
   [inc_row_with]), so the difference is in (-3K, 3K) and one
   conditional add reduces it mod 3K: two [mod]s by a non-constant are
   two integer divisions. *)
let decode_pair t i j =
  let d =
    Bytes.get_uint8 t.e ((i * t.nn) + j) - Bytes.get_uint8 t.e ((j * t.nn) + i)
  in
  if d < 0 then d + (3 * t.kk) else d

let valid t =
  let ok = ref true in
  for i = 0 to t.nn - 1 do
    for j = i + 1 to t.nn - 1 do
      let a = decode_pair t i j in
      if a > t.kk && a < 2 * t.kk then ok := false
    done
  done;
  !ok

let undecodable () =
  invalid_arg "Edge_counters.to_graph_into: undecodable state"

let[@inline] fill_pair t w absent i j =
  let a = decode_pair t i j in
  Bytes.set_int8 w ((i * t.nn) + j) (if a <= t.kk then a else absent)

(* A pair with both rows dirty is visited once, from its lower row. *)
let[@inline] visit t i j =
  j <> i && not (j < i && Bytes.unsafe_get t.is_dirty j <> '\000')

(* The decode, into a caller-owned scratch graph: a pair decodes to a
   present edge exactly when [a <= K], with weight [a].  The fill
   writes the graph's weight matrix in place, so a decode allocates
   nothing beyond the [Some g] that records a newly seen graph.

   Only the 2(n-1) pairs of each changed row are re-validated and
   re-decoded: when [g] still holds this matrix's last decode (same
   graph, generation untouched since), every other pair is exactly as
   last decoded and was valid then.  With no changed row the graph,
   and its cached position reconstruction, is kept as is.  Otherwise —
   first use, another graph, a fill by someone else, a raised error —
   every row counts as changed, which is the whole-matrix decode: each
   unordered pair is validated once and filled both ways. *)
let to_graph_into t g =
  if Distance_graph.n g <> t.nn || Distance_graph.k g <> t.kk then
    invalid_arg "Edge_counters.to_graph_into: scratch graph shape mismatch";
  let warm =
    match t.synced with
    | Some g' -> g' == g && Distance_graph.generation g = t.synced_gen
    | None -> false
  in
  if not warm then
    for i = 0 to t.nn - 1 do
      mark_dirty t i
    done;
  let dn = t.ndirty in
  if dn = 0 then t.reuses <- t.reuses + 1
  else begin
    for d = 0 to dn - 1 do
      let i = t.dirty.(d) in
      for j = 0 to t.nn - 1 do
        if (visit [@inlined]) t i j then begin
          let a = decode_pair t i j in
          if a > t.kk && a < 2 * t.kk then begin
            t.synced <- None;
            clear_dirty t;
            undecodable ()
          end
        end
      done
    done;
    let w = Distance_graph.weights g and absent = Distance_graph.absent in
    for d = 0 to dn - 1 do
      let i = t.dirty.(d) in
      for j = 0 to t.nn - 1 do
        if (visit [@inlined]) t i j then begin
          (fill_pair [@inlined]) t w absent i j;
          (fill_pair [@inlined]) t w absent j i
        end
      done
    done;
    clear_dirty t;
    Distance_graph.invalidate g;
    (match t.synced with
    | Some g' when g' == g -> ()
    | _ -> t.synced <- Some g);
    t.synced_gen <- Distance_graph.generation g;
    if dn = t.nn then t.full_refills <- t.full_refills + 1
    else begin
      t.incremental_refills <- t.incremental_refills + 1;
      t.rows_redecoded <- t.rows_redecoded + dn
    end
  end

type refill_stats = {
  full_refills : int;
  incremental_refills : int;
  rows_redecoded : int;
  reuses : int;
}

let refill_stats (t : t) =
  {
    full_refills = t.full_refills;
    incremental_refills = t.incremental_refills;
    rows_redecoded = t.rows_redecoded;
    reuses = t.reuses;
  }

let inc_row_with t ~graph i =
  if Distance_graph.n graph <> t.nn || Distance_graph.k graph <> t.kk then
    invalid_arg "Edge_counters.inc_row_with: graph shape mismatch";
  let fresh = row t i in
  Distance_graph.advance_row graph i fresh;
  fresh

(* Sequential play decodes into a graph of [t]'s own, made on the first
   call, so a run of [apply_inc]s refills it one changed row at a
   time. *)
let apply_inc t i =
  let g =
    match t.own with
    | Some g -> g
    | None ->
      let g = Distance_graph.create_scratch ~k:t.kk ~n:t.nn in
      t.own <- Some g;
      g
  in
  to_graph_into t g;
  Bytes.blit (inc_row_with t ~graph:g i) 0 t.e (i * t.nn) t.nn;
  t.src.(i) <- no_row;
  mark_dirty t i
