(* Flat representation: one [nn*nn] byte matrix indexed [i*nn + j],
   one signed byte per weight, with [absent] (-128) as the
   missing-edge code — no per-pair options, no row arrays, and no
   pointers for the GC to scan.  A weight of a graph decoded from edge
   counters lies in [0, K] with K <= [max_k]; the signed range leaves
   room for the negative weights of hand-built test graphs.  On top of
   it sits a cached *position reconstruction*: a graph that is exactly
   [of_positions ~k p] for some token positions [p] (every G(S) the
   atomic game reaches is, because positions and their gap-compressed
   shrinking produce the same graph) answers
   [dist], [dist_ge] and [advance_row]'s max-path test from the
   positions in O(1)/O(n) instead of the O(n^3)/O(n^4) relaxations —
   the difference between n=4 and n=1024.  Graphs that no positions
   produce fall back to the original relaxation algorithms, kept
   verbatim in [test/oracles/distance_graph_ref.ml] and mirrored here.
   Such graphs do arise on the protocol path: a decode of the bounded
   strip's counters is inconsistent once concurrent increments have
   corrupted them (the agreement violation pinned in
   [test/cram/known-defects.t]), and [inconsistent] counts those
   reconstructions. *)

let absent = -128
let max_k = 85

type positions =
  | Unknown  (** reconstruction not attempted yet *)
  | Inconsistent  (** no token positions produce this graph *)
  | Pos of int array  (** [of_positions ~k pos] equals this graph *)

type t = {
  nn : int;
  kk : int;
  w : Bytes.t;  (** byte [i*nn + j]: edge weight, or [absent] *)
  mutable pos : positions;
  mutable generation : int;  (** bumped by every [invalidate] *)
  mutable inconsistent : int;  (** reconstructions that found no positions *)
  (* Reconstruction scratch, lazily allocated on the first
     [reconstruct] and reused across refills of the same graph: a
     scratch graph on the protocol decision path reconstructs once per
     scan without allocating. *)
  mutable rank : int array;
  mutable order : int array;
  mutable count : int array;  (** counting-sort histogram *)
  mutable posbuf : int array;  (** backs the cached [Pos] candidate *)
  mutable pos_some : positions;  (** [Pos posbuf], boxed once *)
}

let n t = t.nn
let k t = t.kk

(* A signed byte, read without a bounds check: every caller indexes
   with [i], [j] in [0, nn). *)
let unsafe_w t i j =
  let c = Char.code (Bytes.unsafe_get t.w ((i * t.nn) + j)) in
  (c lsl (Sys.int_size - 8)) asr (Sys.int_size - 8)

let make ~k ~n w =
  {
    nn = n;
    kk = k;
    w;
    pos = Unknown;
    generation = 0;
    inconsistent = 0;
    rank = [||];
    order = [||];
    count = [||];
    posbuf = [||];
    pos_some = Unknown;
  }

let absent_byte = Char.chr (absent land 0xff)

let of_positions ~k pos =
  if k > 127 then
    invalid_arg "Distance_graph.of_positions: k above 127 does not fit a byte";
  let nn = Array.length pos in
  let w = Bytes.make (nn * nn) absent_byte in
  for i = 0 to nn - 1 do
    for j = 0 to nn - 1 do
      if i <> j && pos.(i) >= pos.(j) then
        Bytes.set_int8 w ((i * nn) + j) (Int.min (pos.(i) - pos.(j)) k)
    done
  done;
  make ~k ~n:nn w

(* --- scratch-graph plumbing (the [_into] decode path) -------------- *)

let create_scratch ~k ~n =
  if k <= 0 || n <= 0 then invalid_arg "Distance_graph.create_scratch";
  if k > max_k then
    invalid_arg "Distance_graph.create_scratch: k above 85 does not fit a byte";
  make ~k ~n (Bytes.make (n * n) absent_byte)

let invalidate t =
  t.pos <- Unknown;
  t.generation <- t.generation + 1

let generation t = t.generation
let inconsistent t = t.inconsistent
let weights t = t.w

let edge t i j = Bytes.get_int8 t.w ((i * t.nn) + j) <> absent

let weight t i j =
  let d = Bytes.get_int8 t.w ((i * t.nn) + j) in
  if d = absent then invalid_arg "Distance_graph.weight: no such edge";
  d

(* --- position reconstruction ------------------------------------- *)

(* Try to find positions [p] with [of_positions ~k p] structurally
   equal to [t].  Rank each token by how many others it leads (a true
   total preorder makes ranks consistent), lay the tokens out bottom-up
   summing the adjacent capped gaps, then verify the candidate against
   every pair — any graph that passes answers all max-path queries
   positionally, any graph that fails keeps the relaxation fallback.
   O(n^2), amortized over every query on the same graph.

   The scratch arrays ([rank]/[order]/[count]/[posbuf]) and the
   [Pos posbuf] box are allocated once per graph and reused on every
   refill, so a steady-state reconstruct allocates nothing.  The
   ordering is a counting sort by rank (rank values lie in
   [0, n-1]); it can break rank ties
   differently than the [Array.sort] it replaces, which is immaterial:
   tied tokens share a position, so tie order only changes which
   representative anchors the next gap, and the verification pass
   accepts a candidate only when it reproduces [t] exactly — any two
   verified candidates answer every query identically (adjacent gaps
   are <= k, making positional distances equal the relaxation's). *)
let ensure_scratch t =
  if Array.length t.rank <> t.nn then begin
    t.rank <- Array.make t.nn 0;
    t.order <- Array.make t.nn 0;
    t.count <- Array.make t.nn 0;
    t.posbuf <- Array.make t.nn 0;
    t.pos_some <- Pos t.posbuf
  end

(* Only the failing exits pay for the count. *)
let fail t =
  t.inconsistent <- t.inconsistent + 1;
  Inconsistent

let reconstruct t =
  let nn = t.nn in
  ensure_scratch t;
  let rank = t.rank in
  Array.fill rank 0 nn 0;
  for i = 0 to nn - 1 do
    for j = 0 to nn - 1 do
      if i <> j && unsafe_w t i j <> absent then rank.(i) <- rank.(i) + 1
    done
  done;
  let order = t.order and count = t.count in
  Array.fill count 0 nn 0;
  for i = 0 to nn - 1 do
    count.(rank.(i)) <- count.(rank.(i)) + 1
  done;
  let acc = ref 0 in
  for r = 0 to nn - 1 do
    let c = count.(r) in
    count.(r) <- !acc;
    acc := !acc + c
  done;
  for i = 0 to nn - 1 do
    let r = rank.(i) in
    order.(count.(r)) <- i;
    count.(r) <- count.(r) + 1
  done;
  let pos = t.posbuf in
  Array.fill pos 0 nn 0;
  let ok = ref true in
  for s = 1 to nn - 1 do
    let cur = order.(s) and prev = order.(s - 1) in
    if rank.(cur) = rank.(prev) then pos.(cur) <- pos.(prev)
    else begin
      let gap = unsafe_w t cur prev in
      if gap = absent || gap < 0 || gap > t.kk then ok := false
      else pos.(cur) <- pos.(prev) + gap
    end
  done;
  if not !ok then fail t
  else begin
    (* verify: [of_positions ~k pos] must reproduce [t] exactly *)
    (try
       for i = 0 to nn - 1 do
         for j = 0 to nn - 1 do
           if i <> j then begin
             let expect =
               if pos.(i) >= pos.(j) then Int.min (pos.(i) - pos.(j)) t.kk
               else absent
             in
             if unsafe_w t i j <> expect then raise Exit
           end
         done
       done
     with Exit -> ok := false);
    if !ok then t.pos_some else fail t
  end

let positions t =
  match t.pos with
  | Unknown ->
    let p = reconstruct t in
    t.pos <- p;
    p
  | p -> p

let reconstruct_into t =
  match positions t with Pos _ -> true | Unknown | Inconsistent -> false

(* --- fallback: the original relaxation algorithms, verbatim ------- *)

(* Longest-walk relaxation from source [i].  With no positive cycles,
   walks and simple paths have equal maxima and the values converge
   within [n] rounds. *)
let dist_from t i =
  let d = Array.make t.nn min_int in
  d.(i) <- 0;
  for _ = 1 to t.nn do
    for u = 0 to t.nn - 1 do
      if d.(u) > min_int then
        for v = 0 to t.nn - 1 do
          let duv = unsafe_w t u v in
          if duv <> absent && d.(u) + duv > d.(v) then d.(v) <- d.(u) + duv
        done
    done
  done;
  d

let dist t i j =
  match positions t with
  | Pos p -> if p.(i) >= p.(j) then Some (p.(i) - p.(j)) else None
  | Unknown | Inconsistent ->
    let d = (dist_from t i).(j) in
    if d = min_int then None else Some d

(* [dist] without the option box: the protocol's trails-by-K test runs
   it once per pair per scan, so the positional path must not allocate.
   The fallback allocates its relaxation array exactly as [dist] does.
   It fires on the corrupt decodes of the bounded strip, whose failed
   reconstructions [inconsistent] counts. *)
let dist_ge t i j b =
  match positions t with
  | Pos p -> p.(i) >= p.(j) && p.(i) - p.(j) >= b
  | Unknown | Inconsistent ->
    let d = (dist_from t i).(j) in
    d <> min_int && d >= b

(* Is the present edge (j,i), of weight [wji], on a max path into i? *)
let tight t j i wji =
  match positions t with
  (* (j,i) is on a max path into i iff its weight is tight:
     [weight j i = dist j i] — positionally, [p.(j) - p.(i)]. *)
  | Pos p -> wji = p.(j) - p.(i)
  | Unknown | Inconsistent ->
    (* (j,i) lies on a max path from some source k into i. *)
    let rec try_src k =
      if k >= t.nn then false
      else begin
        let d = dist_from t k in
        (d.(j) > min_int && d.(i) > min_int && d.(j) + wji = d.(i))
        || try_src (k + 1)
      end
    in
    try_src 0

(* One pass over the pairs of [i], with no call out of this module per
   pair.  The positions are reconstructed, if at all, at the first edge
   into [i]: a row with no edge into [i] never needs them. *)
let advance_row t i row =
  if Bytes.length row <> t.nn then
    invalid_arg "Distance_graph.advance_row: row must have length n";
  let m = 3 * t.kk in
  for j = 0 to t.nn - 1 do
    if j <> i then begin
      let wji = unsafe_w t j i and wij = unsafe_w t i j in
      if (wji <> absent && tight t j i wji) || (wij <> absent && wij < t.kk)
      then begin
        let c = Bytes.get_uint8 row j + 1 in
        Bytes.set_uint8 row j (if c = m then 0 else c)
      end
    end
  done

(* The protocol asks "am I a leader?" and "do all leaders agree?" once
   per scan, and neither question needs a list.  A while loop, not an
   inner recursive function: the closure for the latter captures [t]
   and [i] and so allocates on every call, which the scan-path alloc
   tests would charge to the protocol. *)
let is_leader t i =
  let ok = ref true in
  let j = ref 0 in
  while !ok && !j < t.nn do
    if !j <> i && unsafe_w t i !j = absent then ok := false;
    incr j
  done;
  !ok

let no_positive_cycle t =
  match positions t with
  | Pos _ -> true  (* position differences cannot sum positive on a cycle *)
  | Unknown | Inconsistent ->
    (* After [n] relaxation rounds from every source, one more round must
       yield no improvement. *)
    let ok = ref true in
    for i = 0 to t.nn - 1 do
      let d = dist_from t i in
      for u = 0 to t.nn - 1 do
        if d.(u) > min_int then
          for v = 0 to t.nn - 1 do
            let duv = unsafe_w t u v in
            if duv <> absent && d.(u) + duv > d.(v) then ok := false
          done
      done
    done;
    !ok

let weights_in_range t =
  let ok = ref true in
  for x = 0 to Bytes.length t.w - 1 do
    let d = Bytes.get_int8 t.w x in
    if d <> absent && (d < 0 || d > t.kk) then ok := false
  done;
  !ok

let total_order_consistent t =
  let ok = ref true in
  for i = 0 to t.nn - 1 do
    for j = i + 1 to t.nn - 1 do
      let a = unsafe_w t i j and b = unsafe_w t j i in
      if a = absent && b = absent then ok := false
      else if a <> absent && b <> absent && (a <> 0 || b <> 0) then ok := false
    done
  done;
  !ok

let equal a b = a.nn = b.nn && a.kk = b.kk && Bytes.equal a.w b.w

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  for i = 0 to t.nn - 1 do
    for j = 0 to t.nn - 1 do
      let d = unsafe_w t i j in
      if d <> absent then Fmt.pf ppf "%d->%d:%d " i j d
    done
  done;
  Fmt.pf ppf "@]"
