module Sim = Bprc_runtime.Sim
module Adversary = Bprc_runtime.Adversary
module Vec = Bprc_util.Vec
module Pool = Bprc_harness.Pool

type setup = Sim.t -> unit -> (unit, string) result

type witness = {
  choices : int list;
  flips : bool list;
  failure : string;
  clock : int;
}

type stats = {
  runs : int;
  pruned : int;
  step_limited : int;
  exhausted : bool;
  violation : witness option;
}

type replay_outcome = Pass | Fail of string | Cutoff

(* Kept for callers that still read the retired checkpoint ladder's
   counters; nothing parks or regenerates arenas any more. *)
let ladder_counters () = (0, 0)

(* ---- step independence ------------------------------------------------ *)

(* Accesses are kept in {!Sim.last_access_code}'s packed-int form so
   classifying a step allocates nothing:
     -1                          local (no shared effect; includes flips)
     ((reg + 1) lsl 2) lor k     k = 0 read, 1 write
     3                           opaque (explicit yield: may hide
                                 wrapper-level shared mutation)
   Distinct registers give distinct [c lsr 2], and [c land 3] is the
   kind, so independence is a few bit tests. *)
let acc_local = -1
let acc_opaque = 3

let independent a b =
  if a = acc_local || b = acc_local then true
  else if a land 3 = 3 || b land 3 = 3 then false
  else a lsr 2 <> b lsr 2 || (a land 3 = 0 && b land 3 = 0)

let access_of_step sim =
  let c = Sim.last_access_code sim in
  if c < 0 then acc_local
  else if c land 3 = 2 then acc_local (* coin flips have no shared effect *)
  else c

(* ---- the DFS decision tree -------------------------------------------- *)

(* The decision tree lives in depth-indexed int-array pools (the same
   style as [Sim]'s scratch buffers) instead of per-node heap records:
   one slot per tree depth, reused every time the DFS revisits that
   depth, so steady-state exploration allocates nothing per run.  Depth
   [r] (relative to the shard prefix) holds either a scheduling point —
   candidate pids in [order.(r)] (a row of exactly [n] ints, allocated
   once per depth, [onum.(r)] of them live), the branch currently
   explored in [bidx.(r)], its runnable-array index cached in
   [cix.(r)] ([-1] = recompute on next visit, set by backtrack when it
   advances the branch), and its step's packed access code in
   [acc.(r)] — or a coin flip ([kind] byte 1) whose explored value is
   [bidx.(r)].

   Sleep sets are rows in the same pools: [spid.(r)]/[sacc.(r)] hold
   the node's sleep-in entries ([sin.(r)] of them — pids asleep when
   the node was created, with the access that put them to sleep)
   followed by the slept entries appended by backtrack ([snum.(r)]
   total).  The pending sleep set entering a fresh node is a pure
   function of the last scheduling node below it (filter its row by
   independence with its captured access), so it is computed once per
   node creation instead of once per step.

   [pos]/[ci]/[fi] are the current run's decision cursors (decisions
   executed, prefix choices and prefix flips consumed); they live here
   rather than in per-run closures so one adversary closure serves
   every run of the shard, each rewinding them to the root.  [cap] is
   the depth whose access code must be captured once the current step
   has run ([-1] = none): fresh nodes and re-chosen branches set it, so
   access capture happens exactly once per branch. *)
type dfs = {
  mutable kind : Bytes.t;  (* 0 = sched, 1 = flip *)
  mutable order : int array array;
  mutable onum : int array;
  mutable bidx : int array;
  mutable cix : int array;
  mutable acc : int array;
  mutable spid : int array array;
  mutable sacc : int array array;
  mutable snum : int array;
  mutable sin : int array;
  mutable len : int;  (* nodes on the current path *)
  mutable pos : int;  (* decisions executed by the driving arena *)
  mutable ci : int;  (* prefix choices consumed *)
  mutable fi : int;  (* prefix flips consumed *)
  mutable cap : int;  (* depth awaiting access capture; -1 = none *)
}

let dfs_make () =
  let c = 64 in
  {
    kind = Bytes.make c '\000';
    order = Array.make c [||];
    onum = Array.make c 0;
    bidx = Array.make c 0;
    cix = Array.make c (-1);
    acc = Array.make c acc_opaque;
    spid = Array.make c [||];
    sacc = Array.make c [||];
    snum = Array.make c 0;
    sin = Array.make c 0;
    len = 0;
    pos = 0;
    ci = 0;
    fi = 0;
    cap = -1;
  }

let grow_int a c = Array.append a (Array.make c 0)

(* Make depth [rel] addressable and its [order] row allocated. *)
let ensure_depth d rel ~n =
  let c = Array.length d.onum in
  if rel >= c then begin
    d.kind <- Bytes.cat d.kind (Bytes.make c '\000');
    d.order <- Array.append d.order (Array.make c [||]);
    d.onum <- grow_int d.onum c;
    d.bidx <- grow_int d.bidx c;
    d.cix <- grow_int d.cix c;
    d.acc <- grow_int d.acc c;
    d.spid <- Array.append d.spid (Array.make c [||]);
    d.sacc <- Array.append d.sacc (Array.make c [||]);
    d.snum <- grow_int d.snum c;
    d.sin <- grow_int d.sin c
  end;
  if Array.length d.order.(rel) = 0 && n > 0 then
    d.order.(rel) <- Array.make n 0

(* Make depth [rel]'s sleep row hold at least [want] entries. *)
let ensure_sleep d rel want =
  let have = Array.length d.spid.(rel) in
  if want > have then begin
    let c = max want (max 8 (2 * have)) in
    let sp = Array.make c 0 and sa = Array.make c 0 in
    Array.blit d.spid.(rel) 0 sp 0 have;
    Array.blit d.sacc.(rel) 0 sa 0 have;
    d.spid.(rel) <- sp;
    d.sacc.(rel) <- sa
  end

exception Prune

(* Raised when a run reaches an armed carve frontier: the run is
   abandoned and its decision prefix becomes a child shard. *)
exception Frontier_hit

(* An explorer bug: a replayed prefix stopped matching the recorded
   tree.  Deliberately not caught with the setup's own exceptions, so it
   escapes instead of turning into a witness. *)
exception Divergence of string

let index_of arr pid =
  let n = Array.length arr in
  let rec go i =
    if i >= n then raise (Divergence "replay divergence (pid not runnable)")
    else if arr.(i) = pid then i
    else go (i + 1)
  in
  go 0

(* ---- replay of an explicit witness ------------------------------------ *)

(* The adversary a simulator is (re)created with before the real one is
   installed by [reset]; never actually asked to choose. *)
let placeholder_adversary =
  Adversary.make ~name:"explore-init" (fun ctx -> ctx.runnable.(0))

(* An exception out of a process body or a check is that run's
   violation, reported under this failure text. *)
let raised e = "raised: " ^ Printexc.to_string e

(* Replay on an existing arena: [Sim.reset] guarantees bit-identical
   behaviour to a fresh [Sim.create], so the explorer and the shrinker
   reuse one simulator across their thousands of runs instead of
   allocating processes, scratch buffers and RNG state every time. *)
let replay_on sim ~choices ~flips ~setup =
  let fallback = Adversary.make ~name:"first" (fun ctx -> ctx.runnable.(0)) in
  let adversary = Adversary.scripted ~choices ~fallback () in
  Sim.reset ~adversary sim;
  (* Witness replays keep choice validation on: a script recorded
     against a different runnable set must fail fast, not silently step
     the wrong process. *)
  Sim.set_validate sim true;
  let remaining = ref flips in
  Sim.set_flip_source sim (fun ~pid:_ ->
      match !remaining with
      | [] -> false
      | b :: tl ->
        remaining := tl;
        b);
  let check = setup sim in
  match Sim.run sim with
  | Sim.Hit_step_limit -> (Cutoff, Sim.clock sim)
  | Sim.Completed -> (
    match check () with
    | Ok () -> (Pass, Sim.clock sim)
    | Error e -> (Fail e, Sim.clock sim)
    | exception e -> (Fail (raised e), Sim.clock sim))
  | exception e -> (Fail (raised e), Sim.clock sim)

let replay ~n ?(max_steps = 2000) ~choices ~flips ~setup () =
  let sim =
    Sim.create ~seed:0 ~max_steps ~n ~adversary:placeholder_adversary ()
  in
  replay_on sim ~choices ~flips ~setup

(* Per-shard mutable exploration state: the flat DFS pools, the
   shard's one simulator arena (every run rewinds it with [Sim.reset],
   which also adopts it for whichever domain explores the shard this
   round), and the sleep set pending at the carve point. *)
type shard_state = {
  st_dfs : dfs;
  st_sim : Sim.t;
  st_seed_pid : int array;
  st_seed_acc : int array;
}

(* ---- shards ------------------------------------------------------------ *)

(* A shard of the decision tree: a frozen decision prefix plus DFS
   state for everything below it.  The prefix stores schedule decisions
   as runnable-array indices (what a replay needs) and coin decisions
   as raw booleans; [sb_seed] is the sleep set pending at the carve
   point, so sleep-set reduction below the prefix starts exactly where
   the sequential walk would have it.  Each shard owns its simulator
   arena, made when the shard is first explored, so a worker exploring
   it never shares mutable state with any other shard.

   A shard's {e stream} is the sequence of runs the sequential DFS
   would perform below its prefix.  When a shard is armed
   ([sb_split_at >= 0], carve depth [sb_split_depth]), fresh extensions
   at or beyond the depth are not taken: the pending prefix becomes a
   child shard, registered in [sb_children] in DFS order with a
   snapshot of the parent's own counters.  The stream then reads

     [own seg 0] [child 0's stream] [own seg 1] [child 1's stream] ...
     [final own seg]

   where own segment [i] is the parent's own runs between snapshots.
   A fresh extension always sits over a never-explored subtree (nodes
   for exhausted siblings are popped, so an absent node at position [p]
   means this exact decision combination was never extended), so a
   child's stream never overlaps work the parent already counted, and a
   parent's own violation — which aborts carving — is always in the
   final segment, after every child.  That ordering is what lets
   [walk] below reconstruct the exact sequential report from per-shard
   states alone. *)
type subtree = {
  sb_choices : int array;
  sb_flips : bool array;
  sb_seed : (int * int) list;
  mutable sb_st : shard_state option;
  mutable sb_runs : int;
  mutable sb_pruned : int;
  mutable sb_cutoff : int;
  mutable sb_done : bool;  (* every schedule below the prefix explored *)
  mutable sb_violation : witness option;
  sb_children : child Vec.t;  (* carved subtrees, in DFS (stream) order *)
  mutable sb_split_depth : int;  (* absolute carve depth; -1 = not armed *)
  mutable sb_split_at : int;  (* own runs completed when armed; -1 = never *)
  (* Per-round scheduling annotations, written only by the driving
     domain between rounds. *)
  mutable sb_rank : int;  (* stream (pre-order) rank this round *)
  mutable sb_anc : int list;  (* ranks of ancestors this round *)
  mutable sb_lb : int;  (* stream position its next run cannot precede *)
  mutable sb_total : int;  (* recorded runs in its whole subtree *)
}

and child = {
  at_runs : int;  (* parent's own counters when this child was carved *)
  at_pruned : int;
  at_cutoff : int;
  ch : subtree;
}

let subtree_make ~choices ~flips ~seed =
  {
    sb_choices = choices;
    sb_flips = flips;
    sb_seed = seed;
    sb_st = None;
    sb_runs = 0;
    sb_pruned = 0;
    sb_cutoff = 0;
    sb_done = false;
    sb_violation = None;
    sb_children = Vec.create ();
    sb_split_depth = -1;
    sb_split_at = -1;
    sb_rank = 0;
    sb_anc = [];
    sb_lb = 0;
    sb_total = 0;
  }

let prefix_len sub = Array.length sub.sb_choices + Array.length sub.sb_flips

(* The pending sleep set entering a fresh node at depth [rel]: the
   shard seed at the root of the shard, otherwise the last scheduling
   node's sleep entries filtered by independence with its step's
   access.  (The node below a fresh extension is that extension's
   direct predecessor step: a flip node's scheduling point sits
   immediately below it, so the last sched node is at [rel-1] or
   [rel-2].)  Written straight into depth [rel]'s sleep rows — no
   per-node closure, this runs roughly once per explored schedule —
   and the count is returned; the caller sets [snum]/[sin].  Reading
   row [r < rel] while writing row [rel] never aliases. *)
let pending_fill st rel =
  let d = st.st_dfs in
  if rel = 0 then begin
    let sp = st.st_seed_pid and sa = st.st_seed_acc in
    let m = Array.length sp in
    if m > 0 then begin
      ensure_sleep d 0 m;
      Array.blit sp 0 d.spid.(0) 0 m;
      Array.blit sa 0 d.sacc.(0) 0 m
    end;
    m
  end
  else begin
    let r = if Bytes.get d.kind (rel - 1) = '\000' then rel - 1 else rel - 2 in
    let a = d.acc.(r) in
    let sp = d.spid.(r) and sa = d.sacc.(r) in
    let np = ref 0 in
    for j = 0 to d.snum.(r) - 1 do
      if independent sa.(j) a then begin
        ensure_sleep d rel (!np + 1);
        d.spid.(rel).(!np) <- sp.(j);
        d.sacc.(rel).(!np) <- sa.(j);
        incr np
      end
    done;
    !np
  end

let state_of ~n ~max_steps sub =
  match sub.sb_st with
  | Some st -> st
  | None ->
    let st =
      {
        st_dfs = dfs_make ();
        st_sim =
          Sim.create ~seed:0 ~max_steps ~n ~adversary:placeholder_adversary ();
        st_seed_pid = Array.of_list (List.map fst sub.sb_seed);
        st_seed_acc = Array.of_list (List.map snd sub.sb_seed);
      }
    in
    ensure_depth st.st_dfs 0 ~n;
    sub.sb_st <- Some st;
    st

(* Explore [sub]'s shard depth-first for at most [quota] completed runs
   (pruned and step-limited runs count: each consumes a schedule), or
   until the shard is exhausted, a violation is found, [deadline]
   passes, or [cancel] fires.  State accumulates in [sub], so
   successive calls resume the DFS where the previous quota ran out.

   While the shard is armed ([sb_split_depth >= 0]), the first {e
   fresh} scheduling extension at global position [>= sb_split_depth]
   is not taken — the pending prefix (choices, flips, sleep set)
   becomes a child shard and the run is abandoned, counted in neither
   [runs] nor [pruned] (the child accounts for every schedule below
   it).  Replays of existing path nodes never trigger the frontier, so
   arming mid-stream is sound: work already explored stays in the
   parent, only never-visited subtrees are donated.  Coin flips never
   trigger the frontier either, so a prefix always ends on a completed
   step and the captured sleep set is exactly the one the sequential
   walk would carry into that scheduling point.

   Every run replays from the root: [Sim.reset] on the shard's arena,
   [setup], then one [Sim.run_to] to the step bound.  An exception out
   of a process body or the check ends the run as a violation; the
   explorer's own [Divergence] escapes. *)
let explore_sub ~n ~max_steps ~reduction ~setup ~quota ~deadline
    ?(cancel = fun () -> false) sub =
  let st = state_of ~n ~max_steps sub in
  let d = st.st_dfs in
  let plen = prefix_len sub in
  let did = ref 0 in
  let over_deadline () =
    match deadline with None -> false | Some dl -> Unix.gettimeofday () > dl
  in
  let register rel =
    let nc = Array.length sub.sb_choices in
    let nf = Array.length sub.sb_flips in
    let cn = ref nc and fn = ref nf in
    for r = 0 to rel - 1 do
      if Bytes.get d.kind r = '\000' then incr cn else incr fn
    done;
    let choices = Array.make !cn 0 in
    Array.blit sub.sb_choices 0 choices 0 nc;
    let flips = Array.make !fn false in
    Array.blit sub.sb_flips 0 flips 0 nf;
    let ci = ref nc and fi = ref nf in
    for r = 0 to rel - 1 do
      if Bytes.get d.kind r = '\000' then begin
        choices.(!ci) <- d.cix.(r);
        incr ci
      end
      else begin
        flips.(!fi) <- d.bidx.(r) = 1;
        incr fi
      end
    done;
    let seed =
      if not reduction then []
      else begin
        (* Fill depth [rel]'s sleep rows as scratch: the node there is
           never created (the run is abandoned at the frontier), and a
           later fresh extension at [rel] overwrites the rows. *)
        ensure_depth d rel ~n;
        let np = pending_fill st rel in
        List.init np (fun j -> (d.spid.(rel).(j), d.sacc.(rel).(j)))
      end
    in
    Vec.push sub.sb_children
      {
        at_runs = sub.sb_runs;
        at_pruned = sub.sb_pruned;
        at_cutoff = sub.sb_cutoff;
        ch = subtree_make ~choices ~flips ~seed;
      }
  in
  let sim = st.st_sim in
  (* Store the pending access capture, if any.  [Sim.last_access_code]
     still holds the previous step's access when the next [choose]
     runs (the step resets it only after the choice), so the capture
     happens there and once more after the run's last step.  No sleep
     set reads that last one today — a finished run's last node has one
     candidate, a cut-off run's has no child under the bound — but it
     keeps [acc] holding the access of every branch taken. *)
  let capture () =
    let c = d.cap in
    if c >= 0 then begin
      d.acc.(c) <- access_of_step sim;
      d.cap <- -1
    end
  in
  (* The adversary and flip source read only the [dfs] cursors, so one
     pair serves every run of this call. *)
  let choose (ctx : Adversary.ctx) =
    capture ();
    let p = d.pos in
    if p < plen then begin
      (* Replaying the frozen prefix: the simulator state is
         bit-identical to when the carve recorded it, so the stored
         runnable index picks the same process. *)
      let k = sub.sb_choices.(d.ci) in
      d.ci <- d.ci + 1;
      d.pos <- p + 1;
      ctx.runnable.(k)
    end
    else begin
      let rel = p - plen in
      if rel < d.len then begin
        if Bytes.get d.kind rel <> '\000' then
          raise (Divergence "schedule/flip divergence");
        let k = d.cix.(rel) in
        let k =
          if k >= 0 then k
          else begin
            (* Backtrack advanced this node's branch: re-resolve the
               pid's runnable index and re-capture its access. *)
            let k = index_of ctx.runnable d.order.(rel).(d.bidx.(rel)) in
            d.cix.(rel) <- k;
            if reduction then d.cap <- rel;
            k
          end
        in
        d.pos <- p + 1;
        ctx.runnable.(k)
      end
      else begin
        if sub.sb_split_depth >= 0 && p >= sub.sb_split_depth then begin
          register rel;
          raise Frontier_hit
        end;
        ensure_depth d rel ~n;
        let row = d.order.(rel) in
        let onum = ref 0 in
        let first_k = ref (-1) in
        let rn = Array.length ctx.runnable in
        if reduction then begin
          let np = pending_fill st rel in
          d.snum.(rel) <- np;
          d.sin.(rel) <- np;
          let sp = d.spid.(rel) in
          for i = 0 to rn - 1 do
            let pid = Array.unsafe_get ctx.runnable i in
            let sleeping = ref false in
            for j = 0 to np - 1 do
              if Array.unsafe_get sp j = pid then sleeping := true
            done;
            if not !sleeping then begin
              row.(!onum) <- pid;
              if !first_k < 0 then first_k := i;
              incr onum
            end
          done
        end
        else begin
          Array.blit ctx.runnable 0 row 0 rn;
          onum := rn;
          first_k := 0
        end;
        if !onum = 0 then raise Prune;
        Bytes.set d.kind rel '\000';
        d.onum.(rel) <- !onum;
        d.bidx.(rel) <- 0;
        d.cix.(rel) <- !first_k;
        if reduction then d.cap <- rel;
        d.len <- rel + 1;
        d.pos <- p + 1;
        ctx.runnable.(!first_k)
      end
    end
  in
  let flip ~pid:_ =
    let p = d.pos in
    if p < plen then begin
      let b = sub.sb_flips.(d.fi) in
      d.fi <- d.fi + 1;
      d.pos <- p + 1;
      b
    end
    else begin
      let rel = p - plen in
      if rel < d.len then begin
        if Bytes.get d.kind rel = '\000' then
          raise (Divergence "schedule/flip divergence");
        d.pos <- p + 1;
        d.bidx.(rel) = 1
      end
      else begin
        ensure_depth d rel ~n;
        Bytes.set d.kind rel '\001';
        d.bidx.(rel) <- 0;
        d.len <- rel + 1;
        d.pos <- p + 1;
        false
      end
    end
  in
  let adversary = Adversary.make ~name:"explore" choose in
  let witness failure =
    let choices = ref [] and flips = ref [] in
    for r = d.len - 1 downto 0 do
      if Bytes.get d.kind r = '\000' then choices := d.cix.(r) :: !choices
      else flips := (d.bidx.(r) = 1) :: !flips
    done;
    for i = Array.length sub.sb_choices - 1 downto 0 do
      choices := sub.sb_choices.(i) :: !choices
    done;
    for i = Array.length sub.sb_flips - 1 downto 0 do
      flips := sub.sb_flips.(i) :: !flips
    done;
    `Violation
      { choices = !choices; flips = !flips; failure; clock = Sim.clock sim }
  in
  let run_once () =
    Sim.reset ~adversary sim;
    Sim.set_flip_source sim flip;
    let check = setup sim in
    d.pos <- 0;
    d.ci <- 0;
    d.fi <- 0;
    d.cap <- -1;
    match Sim.run_to sim ~clock:max_steps with
    | None | Some Sim.Hit_step_limit ->
      capture ();
      `Cutoff
    | Some Sim.Completed -> (
      capture ();
      match check () with
      | Ok () -> `Pass
      | Error failure -> witness failure
      | exception e -> witness (raised e))
    | exception Prune -> `Pruned
    | exception Frontier_hit -> `Frontier
    | exception (Divergence _ as e) -> raise e
    | exception e -> witness (raised e)
  in
  (* Backtrack to the deepest decision below the prefix with an
     unexplored alternative; marks the shard done when none is left.
     A frontier-abandoned branch backtracks exactly like an explored
     one (its access was captured when the branch first executed), so
     the child shard inherits the subtree and the parent's sleep sets
     stay the sequential walk's. *)
  let rec backtrack () =
    if d.len = 0 then sub.sb_done <- true
    else begin
      let r = d.len - 1 in
      if Bytes.get d.kind r <> '\000' then begin
        if d.bidx.(r) = 1 then begin
          d.len <- r;
          backtrack ()
        end
        else d.bidx.(r) <- 1
      end
      else begin
        if reduction then begin
          let m = d.snum.(r) in
          ensure_sleep d r (m + 1);
          d.spid.(r).(m) <- d.order.(r).(d.bidx.(r));
          d.sacc.(r).(m) <- d.acc.(r);
          d.snum.(r) <- m + 1
        end;
        if d.bidx.(r) + 1 < d.onum.(r) then begin
          d.bidx.(r) <- d.bidx.(r) + 1;
          d.cix.(r) <- -1
        end
        else begin
          d.len <- r;
          backtrack ()
        end
      end
    end
  in
  while
    (not sub.sb_done)
    && sub.sb_violation = None
    && !did < quota
    && (not (over_deadline ()))
    && not (cancel ())
  do
    (match run_once () with
    | `Pass ->
      incr did;
      sub.sb_runs <- sub.sb_runs + 1
    | `Pruned ->
      incr did;
      sub.sb_runs <- sub.sb_runs + 1;
      sub.sb_pruned <- sub.sb_pruned + 1
    | `Cutoff ->
      incr did;
      sub.sb_runs <- sub.sb_runs + 1;
      sub.sb_cutoff <- sub.sb_cutoff + 1
    | `Frontier -> ()
    | `Violation w ->
      incr did;
      sub.sb_runs <- sub.sb_runs + 1;
      sub.sb_violation <- Some w);
    if sub.sb_violation = None then backtrack ()
  done

(* ---- sequential-report reconstruction ---------------------------------- *)

(* The parallel driver never sums per-shard counters directly: it walks
   the stream order (own segments interleaved with children at their
   recorded snapshots) and accumulates exactly the contiguous prefix of
   runs the sequential DFS would have performed, stopping at the first
   violation, the [max_runs] bound, or the first shard whose stream is
   not yet fully recorded.  Everything the walk reads is a deterministic
   function of which runs each shard completed — never of which domain
   ran them or in what order — so the reconstructed report is the
   sequential report, bit for bit, at any worker count. *)

type bound_hit = {
  bh_sh : subtree;  (* shard whose stream the bound lands in *)
  bh_q : int;  (* own-run offset of the bound within that shard *)
  bh_pr0 : int;  (* shard's own pruned/cutoff already accumulated *)
  bh_cut0 : int;
  bh_exact : bool;  (* bound fell on a snapshot: no re-run needed *)
}

type walk_stop =
  | W_done  (* every stream fully recorded within the bound *)
  | W_violation of witness
  | W_bound of bound_hit
  | W_blocked  (* hit an unfinished shard before the bound *)

exception Walk_stop

let walk ~limit root =
  let pos = ref 0 and pr = ref 0 and cut = ref 0 in
  let stop = ref W_done in
  let rec stream s =
    (* Own counters consumed so far, i.e. the last snapshot reached. *)
    let consumed = ref 0 and cpr = ref 0 and ccut = ref 0 in
    let seg r p c =
      let d = r - !consumed in
      if d > 0 then
        if !pos + d > limit then begin
          let take = limit - !pos in
          stop :=
            W_bound
              {
                bh_sh = s;
                bh_q = !consumed + take;
                bh_pr0 = !cpr;
                bh_cut0 = !ccut;
                bh_exact = take = 0;
              };
          pos := limit;
          raise Walk_stop
        end
        else begin
          pos := !pos + d;
          pr := !pr + (p - !cpr);
          cut := !cut + (c - !ccut);
          consumed := r;
          cpr := p;
          ccut := c
        end
    in
    Vec.iter
      (fun cd ->
        seg cd.at_runs cd.at_pruned cd.at_cutoff;
        stream cd.ch)
      s.sb_children;
    seg s.sb_runs s.sb_pruned s.sb_cutoff;
    match s.sb_violation with
    | Some w ->
      stop := W_violation w;
      raise Walk_stop
    | None ->
      if not s.sb_done then begin
        stop := W_blocked;
        raise Walk_stop
      end
  in
  (try stream root with Walk_stop -> ());
  (!pos, !pr, !cut, !stop)

(* Recorded runs in a shard's whole subtree (memoised per round). *)
let rec total s =
  let t = ref s.sb_runs in
  Vec.iter (fun c -> t := !t + total c.ch) s.sb_children;
  s.sb_total <- !t;
  !t

(* Annotate every shard with its stream rank (pre-order), ancestor
   ranks, and the stream position its next unexplored run cannot
   precede; returns the shards in rank order.  All pure functions of
   recorded shard state. *)
let annotate root =
  let order = Vec.create () in
  let rec go s entry anc =
    s.sb_rank <- Vec.length order;
    Vec.push order s;
    s.sb_anc <- anc;
    s.sb_lb <- entry + s.sb_total;
    let anc' = s.sb_rank :: anc in
    let off = ref entry in
    let prev_at = ref 0 in
    Vec.iter
      (fun c ->
        off := !off + (c.at_runs - !prev_at);
        prev_at := c.at_runs;
        go c.ch !off anc';
        off := !off + c.ch.sb_total)
      s.sb_children;
  in
  ignore (total root);
  go root 0 [];
  order

(* Exact pruned/step_limited at own-run offset [q] of shard [sh], for a
   [max_runs] bound that lands strictly inside one of its own segments:
   replay the shard's own stream from scratch on a fresh clone, arming
   the carve frontier at the same own-run offset [sh] was armed at, so
   the clone's run sequence is the shard's own stream exactly.  Carved
   children are discarded — only the counters matter.  Bounded by
   [q <= max_runs] runs; runs without a deadline so the reported
   counters stay exact even when a wall-clock budget expired. *)
let rerun_for_bound ~n ~max_steps ~reduction ~setup sh q =
  let clone =
    subtree_make ~choices:sh.sb_choices ~flips:sh.sb_flips ~seed:sh.sb_seed
  in
  let pre = if sh.sb_split_at >= 0 then min q sh.sb_split_at else q in
  if pre > 0 then
    explore_sub ~n ~max_steps ~reduction ~setup ~quota:pre
      ~deadline:None clone;
  if pre < q then begin
    clone.sb_split_depth <- sh.sb_split_depth;
    clone.sb_split_at <- clone.sb_runs;
    explore_sub ~n ~max_steps ~reduction ~setup ~quota:(q - pre)
      ~deadline:None clone
  end;
  (clone.sb_pruned, clone.sb_cutoff)

(* ---- exhaustive exploration ------------------------------------------- *)

(* Carve depths are in unified decision positions (schedule choices and
   coin flips both count).  The root is carved shallow and cheap; any
   shard still unfinished when the live set thins is re-carved at a
   fixed relative depth — the "steal schedule".  Both triggers are pure
   functions of recorded shard state and the round number, and the
   report is reconstructed rather than summed, so even the
   width-dependent steal threshold cannot leak into results. *)
let first_split_depth = 6
let steal_rel_depth = 6
let first_round_quota = 1024
let quota_growth = 8
let steal_threshold = 2 (* arm re-splits when live < threshold * workers *)

let explore ~n ?(max_steps = 2000) ?(max_runs = 200_000) ?budget_s
    ?(reduction = true) ?(shrink = true) ?pool ?par_quota ~setup () =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) budget_s in
  let over_deadline () =
    match deadline with None -> false | Some d -> Unix.gettimeofday () > d
  in
  let root = subtree_make ~choices:[||] ~flips:[||] ~seed:[] in
  let parallel =
    match pool with Some p -> Pool.workers p > 1 | None -> false
  in
  (* (runs, pruned, step_limited, exhausted, unshrunk violation) *)
  let runs, pruned, step_limited, exhausted, viol =
    if not parallel then begin
      (* Fast path: plain sequential DFS, no carve frontier, no rounds,
         no reconstruction — a 1-worker pool pays nothing for the
         parallel machinery.  The parallel path reconstructs exactly
         this path's report, so the two stay bit-identical. *)
      explore_sub ~n ~max_steps ~reduction ~setup ~quota:max_runs
        ~deadline root;
      ( root.sb_runs,
        root.sb_pruned,
        root.sb_cutoff,
        root.sb_done && root.sb_violation = None,
        root.sb_violation )
    end
    else begin
      let p = Option.get pool in
      root.sb_split_depth <- first_split_depth;
      root.sb_split_at <- 0;
      (* An explicit [par_quota] freezes the per-round quota (the test
         knob: many small rounds exercise the steal schedule on small
         trees); the default ramps geometrically so real explorations
         finish in a handful of barriers. *)
      let round_quota =
        ref (Option.value par_quota ~default:first_round_quota)
      in
      let grow_quota = par_quota = None in
      let prev_sched = ref [] in
      let out = ref None in
      while !out = None do
        let pos, pr, cut, stop = walk ~limit:max_runs root in
        match stop with
        | W_done -> out := Some (pos, pr, cut, true, None)
        | W_violation w -> out := Some (pos, pr, cut, false, Some w)
        | W_bound b ->
          let bpr, bcut =
            if b.bh_exact then (pr, cut)
            else begin
              let rp, rc =
                rerun_for_bound ~n ~max_steps ~reduction ~setup
                  b.bh_sh b.bh_q
              in
              (pr + (rp - b.bh_pr0), cut + (rc - b.bh_cut0))
            end
          in
          out := Some (pos, bpr, bcut, false, None)
        | W_blocked ->
          if over_deadline () then
            (* Wall-clock budget: report the contiguous determinate
               prefix — the one knob that is documented to depend on
               timing, exactly as it already does sequentially. *)
            out := Some (pos, pr, cut, false, None)
          else begin
            let order = annotate root in
            (* Smallest stream rank holding a violation: shards ranked
               after it (outside its subtree) can only produce later
               witnesses, so they are dead weight. *)
            let vrank = ref max_int in
            Vec.iter
              (fun s ->
                if s.sb_violation <> None && s.sb_rank < !vrank then
                  vrank := s.sb_rank)
              order;
            let live = ref [] in
            Vec.iter
              (fun s ->
                let needed =
                  (not s.sb_done)
                  && s.sb_violation = None
                  && s.sb_lb < max_runs
                  && ((not (!vrank < s.sb_rank))
                     || List.mem !vrank s.sb_anc)
                in
                if needed then live := s :: !live)
              order;
            let live = List.rev !live in
            match live with
            | [] ->
              (* Every unfinished shard is beyond the bound or behind a
                 violation; the next walk terminates. *)
              out := Some (pos, pr, cut, false, None)
            | _ ->
              (* Steal schedule: when the live set is too thin to keep
                 the pool busy, re-carve the shards that survived a
                 whole previous round — they are the skewed, fat
                 subtrees.  Arming donates only never-visited branches,
                 so it is sound mid-stream. *)
              if List.length live < steal_threshold * Pool.workers p then
                List.iter
                  (fun s ->
                    if s.sb_split_depth < 0 && List.memq s !prev_sched
                    then begin
                      s.sb_split_depth <- prefix_len s + steal_rel_depth;
                      s.sb_split_at <- s.sb_runs
                    end)
                  live;
              let arr = Array.of_list live in
              let gate = Pool.Gate.create ~level:!vrank () in
              let shed i =
                let g = Pool.Gate.level gate in
                g < arr.(i).sb_rank && not (List.mem g arr.(i).sb_anc)
              in
              Pool.map_gated p ~skip:shed (Array.length arr) (fun i ->
                  let s = arr.(i) in
                  let quota = min !round_quota (max_runs - s.sb_lb) in
                  explore_sub ~n ~max_steps ~reduction ~setup ~quota
                    ~deadline
                    ~cancel:(fun () -> shed i)
                    s;
                  if s.sb_violation <> None then
                    Pool.Gate.lower gate s.sb_rank);
              prev_sched := live;
              if grow_quota then
                round_quota :=
                  if !round_quota > max_runs / quota_growth then max_runs
                  else !round_quota * quota_growth
          end
      done;
      Option.get !out
    end
  in
  let violation =
    match viol with
    | None -> None
    | Some w when not shrink -> Some w
    | Some w ->
      (* Shrink replays run on their own arena: [replay_on] turns sticky
         validation on, which no shard arena should inherit. *)
      let shrink_sim =
        Sim.create ~seed:0 ~max_steps ~n ~adversary:placeholder_adversary ()
      in
      let still_fails choices flips =
        match replay_on shrink_sim ~choices ~flips ~setup with
        | Fail _, _ -> true
        | (Pass | Cutoff), _ -> false
      in
      let choices =
        Bprc_faults.Shrink.ddmin
          ~test:(fun cs -> still_fails cs w.flips)
          w.choices
      in
      let flips =
        Bprc_faults.Shrink.ddmin
          ~test:(fun fs -> still_fails choices fs)
          w.flips
      in
      (match replay_on shrink_sim ~choices ~flips ~setup with
      | Fail failure, clock -> Some { choices; flips; failure; clock }
      | (Pass | Cutoff), _ -> Some w)
  in
  { runs; pruned; step_limited; exhausted; violation }
