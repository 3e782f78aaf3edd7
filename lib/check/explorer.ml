module Sim = Bprc_runtime.Sim
module Adversary = Bprc_runtime.Adversary

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
   [r] holds either a scheduling point — candidate pids in [order.(r)]
   (a row of exactly [n] ints, allocated once per depth, [onum.(r)] of
   them live), the branch currently explored in [bidx.(r)], its
   runnable-array index cached in [cix.(r)] ([-1] = recompute on next
   visit, set by backtrack when it advances the branch), and its step's
   packed access code in [acc.(r)] — or a coin flip ([kind] byte 1)
   whose explored value is [bidx.(r)].

   Sleep sets are rows in the same pools: [spid.(r)]/[sacc.(r)] hold
   the node's sleep-in entries ([sin.(r)] of them — pids asleep when
   the node was created, with the access that put them to sleep)
   followed by the slept entries appended by backtrack ([snum.(r)]
   total).  The pending sleep set entering a fresh node is a pure
   function of the last scheduling node below it (filter its row by
   independence with its captured access), so it is computed once per
   node creation instead of once per step.

   [pos] is the current run's decision cursor (decisions executed); it
   lives here rather than in a per-run closure so one adversary closure
   serves every run, each rewinding it to the root.  [cap] is the depth
   whose access code must be captured once the current step has run
   ([-1] = none): fresh nodes and re-chosen branches set it, so access
   capture happens exactly once per branch. *)
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
  mutable pos : int;  (* decisions executed by the current run *)
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
    cap = -1;
  }

let grow_int a c = Array.append a (Array.make c 0)

(* Make depth [r] addressable and its [order] row allocated. *)
let ensure_depth d r ~n =
  let c = Array.length d.onum in
  if r >= c then begin
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
  if Array.length d.order.(r) = 0 && n > 0 then d.order.(r) <- Array.make n 0

(* Make depth [r]'s sleep row hold at least [want] entries. *)
let ensure_sleep d r want =
  let have = Array.length d.spid.(r) in
  if want > have then begin
    let c = max want (max 8 (2 * have)) in
    let sp = Array.make c 0 and sa = Array.make c 0 in
    Array.blit d.spid.(r) 0 sp 0 have;
    Array.blit d.sacc.(r) 0 sa 0 have;
    d.spid.(r) <- sp;
    d.sacc.(r) <- sa
  end

(* The pending sleep set entering a fresh node at depth [rel]: empty at
   the root, otherwise the last scheduling node's sleep entries filtered
   by independence with its step's access.  (The node below a fresh
   extension is that extension's direct predecessor step: a flip node's
   scheduling point sits immediately below it, so the last sched node
   is at [rel-1] or [rel-2].)  Written straight into depth [rel]'s
   sleep rows — no per-node closure, this runs roughly once per
   explored schedule — and the count is returned; the caller sets
   [snum]/[sin].  Reading row [r < rel] while writing row [rel] never
   aliases. *)
let pending_fill d rel =
  if rel = 0 then 0
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

exception Prune

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

(* A replay's fallback once its script runs out, and the adversary an
   arena is created with before [reset] installs the real one. *)
let first_runnable =
  Adversary.make ~name:"first" (fun ctx -> ctx.runnable.(0))

(* An exception out of a setup, a process body or a check is that run's
   violation, reported under this failure text. *)
let raised e = "raised: " ^ Printexc.to_string e

(* Choice validation stays on: a script recorded against a different
   runnable set must fail fast, not silently step the wrong process. *)
let scripted sim ~choices ~flips ~fallback ~flip_fallback =
  Sim.reset ~adversary:(Adversary.scripted ~choices ~fallback ()) sim;
  Sim.set_validate sim true;
  let remaining = ref flips in
  Sim.set_flip_source sim (fun ~pid:_ ->
      match !remaining with
      | [] -> flip_fallback ()
      | b :: tl ->
        remaining := tl;
        b)

(* Replay on an existing arena: [Sim.reset] guarantees bit-identical
   behaviour to a fresh [Sim.create], so the explorer and the shrinker
   reuse one simulator across their thousands of runs instead of
   allocating processes, scratch buffers and RNG state every time. *)
let replay_on sim ~choices ~flips ~setup =
  scripted sim ~choices ~flips ~fallback:first_runnable
    ~flip_fallback:(fun () -> false);
  match setup sim with
  | exception e -> (Fail (raised e), Sim.clock sim)
  | check -> (
    match Sim.run sim with
    | Sim.Hit_step_limit -> (Cutoff, Sim.clock sim)
    | Sim.Completed -> (
      match check () with
      | Ok () -> (Pass, Sim.clock sim)
      | Error e -> (Fail e, Sim.clock sim)
      | exception e -> (Fail (raised e), Sim.clock sim))
    | exception e -> (Fail (raised e), Sim.clock sim))

let replay ~n ?(max_steps = 2000) ~choices ~flips ~setup () =
  let sim =
    Sim.create ~seed:0 ~max_steps ~n ~adversary:first_runnable ()
  in
  replay_on sim ~choices ~flips ~setup

(* ---- exhaustive exploration ------------------------------------------- *)

(* Ddmin-minimize a witness under replay validation.  Shrink replays run
   on their own arena: [replay_on] turns sticky validation on, which the
   exploring arena must not inherit. *)
let shrink_witness ~n ~max_steps ~setup w =
  let sim =
    Sim.create ~seed:0 ~max_steps ~n ~adversary:first_runnable ()
  in
  let still_fails choices flips =
    match replay_on sim ~choices ~flips ~setup with
    | Fail _, _ -> true
    | (Pass | Cutoff), _ -> false
  in
  let choices =
    Shrink.ddmin ~test:(fun cs -> still_fails cs w.flips) w.choices
  in
  let flips =
    Shrink.ddmin ~test:(fun fs -> still_fails choices fs) w.flips
  in
  match replay_on sim ~choices ~flips ~setup with
  | Fail failure, clock -> { choices; flips; failure; clock }
  | (Pass | Cutoff), _ -> w

(* Explore the tree depth-first for at most [max_runs] runs (pruned and
   step-limited runs count: each consumes a schedule), or until it is
   exhausted, a violation is found or the deadline passes.

   Every run replays from the root on one arena: [Sim.reset], [setup],
   then one [Sim.run_to] to the step bound.  An exception out of the
   setup, a process body or the check ends the run as a violation; the
   explorer's own [Divergence] escapes. *)
let explore ~n ?(max_steps = 2000) ?(max_runs = 200_000) ?budget_s
    ?(reduction = true) ?(shrink = true) ?pool:_ ~setup () =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) budget_s in
  let over_deadline () =
    match deadline with None -> false | Some dl -> Unix.gettimeofday () > dl
  in
  let d = dfs_make () in
  ensure_depth d 0 ~n;
  let sim =
    Sim.create ~seed:0 ~max_steps ~n ~adversary:first_runnable ()
  in
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
     pair serves every run. *)
  let choose (ctx : Adversary.ctx) =
    capture ();
    let p = d.pos in
    if p < d.len then begin
      if Bytes.get d.kind p <> '\000' then
        raise (Divergence "schedule/flip divergence");
      let k = d.cix.(p) in
      let k =
        if k >= 0 then k
        else begin
          (* Backtrack advanced this node's branch: re-resolve the
             pid's runnable index and re-capture its access. *)
          let k = index_of ctx.runnable d.order.(p).(d.bidx.(p)) in
          d.cix.(p) <- k;
          if reduction then d.cap <- p;
          k
        end
      in
      d.pos <- p + 1;
      ctx.runnable.(k)
    end
    else begin
      ensure_depth d p ~n;
      let row = d.order.(p) in
      let onum = ref 0 in
      let first_k = ref (-1) in
      let rn = Array.length ctx.runnable in
      if reduction then begin
        let np = pending_fill d p in
        d.snum.(p) <- np;
        d.sin.(p) <- np;
        let sp = d.spid.(p) in
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
      Bytes.set d.kind p '\000';
      d.onum.(p) <- !onum;
      d.bidx.(p) <- 0;
      d.cix.(p) <- !first_k;
      if reduction then d.cap <- p;
      d.len <- p + 1;
      d.pos <- p + 1;
      ctx.runnable.(!first_k)
    end
  in
  let flip ~pid:_ =
    let p = d.pos in
    if p < d.len then begin
      if Bytes.get d.kind p = '\000' then
        raise (Divergence "schedule/flip divergence");
      d.pos <- p + 1;
      d.bidx.(p) = 1
    end
    else begin
      ensure_depth d p ~n;
      Bytes.set d.kind p '\001';
      d.bidx.(p) <- 0;
      d.len <- p + 1;
      d.pos <- p + 1;
      false
    end
  in
  let adversary = Adversary.make ~name:"explore" choose in
  let witness failure =
    let choices = ref [] and flips = ref [] in
    for r = d.len - 1 downto 0 do
      if Bytes.get d.kind r = '\000' then choices := d.cix.(r) :: !choices
      else flips := (d.bidx.(r) = 1) :: !flips
    done;
    `Violation
      { choices = !choices; flips = !flips; failure; clock = Sim.clock sim }
  in
  let run_once () =
    Sim.reset ~adversary sim;
    Sim.set_flip_source sim flip;
    d.pos <- 0;
    d.cap <- -1;
    match setup sim with
    | exception e -> witness (raised e)
    | check -> (
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
      | exception (Divergence _ as e) -> raise e
      | exception e -> witness (raised e))
  in
  (* Backtrack to the deepest decision with an unexplored alternative;
     [false] when none is left and the tree is exhausted. *)
  let rec backtrack () =
    if d.len = 0 then false
    else begin
      let r = d.len - 1 in
      if Bytes.get d.kind r <> '\000' then begin
        if d.bidx.(r) = 1 then begin
          d.len <- r;
          backtrack ()
        end
        else begin
          d.bidx.(r) <- 1;
          true
        end
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
          d.cix.(r) <- -1;
          true
        end
        else begin
          d.len <- r;
          backtrack ()
        end
      end
    end
  in
  let runs = ref 0 and pruned = ref 0 and cutoff = ref 0 in
  let exhausted = ref false and violation = ref None in
  while
    (not !exhausted) && !violation = None && !runs < max_runs
    && not (over_deadline ())
  do
    incr runs;
    (match run_once () with
    | `Pass -> ()
    | `Pruned -> incr pruned
    | `Cutoff -> incr cutoff
    | `Violation w -> violation := Some w);
    if !violation = None then exhausted := not (backtrack ())
  done;
  {
    runs = !runs;
    pruned = !pruned;
    step_limited = !cutoff;
    exhausted = !exhausted;
    violation =
      (if shrink then Option.map (shrink_witness ~n ~max_steps ~setup) !violation
       else !violation);
  }
