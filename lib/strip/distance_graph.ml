(* Flat representation: one [nn*nn] int array indexed [i*nn + j], with
   [absent] as the missing-edge sentinel — no per-pair options, no row
   arrays.  On top of it sits a cached *position reconstruction*: a
   graph that is exactly [of_positions ~k p] for some token positions
   [p] (every G(S) the atomic game reaches is, because positions and
   their gap-compressed shrinking produce the same graph) answers [dist],
   [on_max_path] and [leaders] from the positions in O(1)/O(n) instead
   of the O(n^3)/O(n^4) relaxations — the difference between n=4 and
   n=1024.  Graphs that no positions produce fall back to the original
   relaxation algorithms, kept verbatim in
   [test/oracles/distance_graph_ref.ml] and mirrored here.  Such graphs
   do arise on the protocol path: a decode of the bounded strip's
   counters is inconsistent once concurrent increments have corrupted
   them (the agreement violation pinned in [test/cram/known-defects.t]),
   and [inconsistent] counts those reconstructions. *)

let absent = min_int

type positions =
  | Unknown  (** reconstruction not attempted yet *)
  | Inconsistent  (** no token positions produce this graph *)
  | Pos of int array  (** [of_positions ~k pos] equals this graph *)

type t = {
  nn : int;
  kk : int;
  w : int array;  (** [w.(i*nn + j)]: edge weight, or [absent] *)
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
let unsafe_w t i j = Array.unsafe_get t.w ((i * t.nn) + j)

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

let of_positions ~k pos =
  let nn = Array.length pos in
  let w = Array.make (nn * nn) absent in
  for i = 0 to nn - 1 do
    for j = 0 to nn - 1 do
      if i <> j && pos.(i) >= pos.(j) then
        w.((i * nn) + j) <- Int.min (pos.(i) - pos.(j)) k
    done
  done;
  make ~k ~n:nn w

let of_weights ~k ~present ~weight ~n =
  let w = Array.make (n * n) absent in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && present i j then w.((i * n) + j) <- weight i j
    done
  done;
  make ~k ~n w

(* --- scratch-graph plumbing (the [_into] decode path) -------------- *)

let create_scratch ~k ~n =
  if k <= 0 || n <= 0 then invalid_arg "Distance_graph.create_scratch";
  make ~k ~n (Array.make (n * n) absent)

let invalidate t =
  t.pos <- Unknown;
  t.generation <- t.generation + 1

let generation t = t.generation
let inconsistent t = t.inconsistent
let set_edge t i j d = t.w.((i * t.nn) + j) <- d
let clear_edge t i j = t.w.((i * t.nn) + j) <- absent

let edge t i j = t.w.((i * t.nn) + j) <> absent

let weight t i j =
  let d = t.w.((i * t.nn) + j) in
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

let on_max_path t j i =
  let wji = t.w.((j * t.nn) + i) in
  if wji = absent then false
  else
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

(* Index loops instead of the old [List.init |> List.filter] pair: the
   protocol asks "am I a leader?" and "do all leaders agree?" once per
   scan, and neither question needs a list. *)
(* A while loop, not an inner recursive function: the closure for the
   latter captures [t] and [i] and so allocates on every call, which
   the scan-path alloc tests would charge to the protocol. *)
let is_leader t i =
  let ok = ref true in
  let j = ref 0 in
  while !ok && !j < t.nn do
    if !j <> i && unsafe_w t i !j = absent then ok := false;
    incr j
  done;
  !ok

let leaders_into t out =
  if Array.length out < t.nn then
    invalid_arg "Distance_graph.leaders_into: buffer shorter than n";
  let c = ref 0 in
  for i = 0 to t.nn - 1 do
    if is_leader t i then begin
      out.(!c) <- i;
      incr c
    end
  done;
  !c

let leaders t =
  let acc = ref [] in
  for i = t.nn - 1 downto 0 do
    if is_leader t i then acc := i :: !acc
  done;
  !acc

(* The copy must not share the reconstruction scratch: a later refill
   of [t] would silently clobber the copy's cached positions. *)
let copy t =
  {
    t with
    w = Array.copy t.w;
    pos = (match t.pos with Pos p -> Pos (Array.copy p) | p -> p);
    inconsistent = 0;
    rank = [||];
    order = [||];
    count = [||];
    posbuf = [||];
    pos_some = Unknown;
  }

let inc t i =
  match positions t with
  | Pos p ->
    (* Rules 1-3 on a consistent graph are exactly "token [i] moves one
       step" (the paper's G(inc(i,S)) = inc(i,G(S))): rebuild from the
       moved positions.  The differential tests pin this against the
       rule-by-rule reference. *)
    let p' = Array.copy p in
    p'.(i) <- p'.(i) + 1;
    of_positions ~k:t.kk p'
  | Unknown | Inconsistent ->
    let g' = copy t in
    let set j i v = g'.w.((j * t.nn) + i) <- v in
    for j = 0 to t.nn - 1 do
      if j <> i then begin
        (* Rule 1: tight edges into i lose one unit as i catches up. *)
        let wji = unsafe_w t j i in
        if wji <> absent && on_max_path t j i then set j i (wji - 1);
        (* Rule 2: i pulls one further ahead of those it leads, capped. *)
        let wij = unsafe_w t i j in
        if wij <> absent && wij < t.kk then set i j (wij + 1)
      end
    done;
    (* Rule 3: flip edges that went negative; a decrement that reaches 0
       means the tokens are now level, so the reverse 0-edge appears too
       (Property 1: both directions present iff weight 0). *)
    for j = 0 to t.nn - 1 do
      if j <> i then begin
        let wji = unsafe_w g' j i in
        if wji <> absent && wji < 0 then begin
          set j i absent;
          set i j (-wji)
        end
        else if wji = 0 then set i j 0
      end
    done;
    g'.pos <- Unknown;
    g'

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
  Array.iter
    (fun d -> if d <> absent && (d < 0 || d > t.kk) then ok := false)
    t.w;
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

let equal a b = a.nn = b.nn && a.kk = b.kk && a.w = b.w

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  for i = 0 to t.nn - 1 do
    for j = 0 to t.nn - 1 do
      let d = unsafe_w t i j in
      if d <> absent then Fmt.pf ppf "%d->%d:%d " i j d
    done
  done;
  Fmt.pf ppf "@]"
