open Effect
open Effect.Deep

type _ Effect.t += Yield_step : unit Effect.t
type _ Effect.t += Flip_coin : bool Effect.t
type _ Effect.t += Run_batch : unit Effect.t

(* Process status as an immediate int tag with the payload (start body
   or pending continuation) in a separate [kont] slot.  A boxed
   [Suspended of continuation] constructor would allocate two words on
   every step; the split representation stores an unboxed tag plus one
   pointer instead.  Tags 0..3 are exactly the schedulable statuses, so
   the runnable scan is a single comparison. *)
let st_not_started = 0 (* kont : unit -> unit, the unstarted body *)
let st_suspended = 1 (* kont : (unit, unit) continuation *)
let st_pending_flip = 2 (* kont : (bool, unit) continuation *)
let st_batch = 3 (* kont : (unit, unit) continuation; accesses pending *)
let st_running = 4
let st_finished = 5
let st_crashed = 6
let kont_none = Obj.repr 0

(* The simulator's register.  It is not a flat float record, so [v]
   holds any value boxed, whatever ['a] is. *)
type 'a register = { mutable v : 'a; id : int; name : string }

(* A segment kind, stored in [proc.b_kind]: a straight-line run of
   accesses of one kind.
     collect   b_out.(j) <- read b_regs.(j), j ascending, j <> b_skip
     collect2  the same into b_out2
     any       read b_arrows.(b_idx.(k)), k ascending; b_any |= value
     clear     write false to b_arrows.(b_idx.(k)), k ascending
     raise     write true to b_arrows.(b_idx.(k)), k ascending
     cell      write b_val to b_cell
   The read kinds come first.  0 marks an empty slot, and ends a
   program. *)
let seg_none = 0
let seg_collect = 1
let seg_collect2 = 2
let seg_any = 3
let seg_clear = 4
let seg_raise = 5
let seg_cell = 6

(* A batch is a program of segments: the current one in [b_kind], the
   ones after it in [b_rest], 3 bits each, the next in the low bits.
   The two programs besides a lone collect: *)
let scan_rest = seg_collect lor (seg_collect2 lsl 3) lor (seg_any lsl 6)
let update_rest = seg_cell

(* [b_*]: the pending program of a process in status [st_batch], stored
   in place so that issuing one allocates nothing beyond its
   continuation.  [b_pos] is the position of the next access of the
   current segment: a register index for a collect, an index into
   [b_idx] for an arrow segment.  The slot is left as it is between
   batches of one process, and emptied when the process finishes or
   crashes and on [reset], so it never holds on to a finished run's
   registers. *)
type proc = {
  ppid : int;
  mutable status : int;  (* one of the [st_*] tags *)
  mutable kont : Obj.t;  (* payload for tags 0..3, [kont_none] otherwise *)
  mutable steps : int;
  mutable flips : int;
  mutable stall_until : int;  (* clock value before which pid is stalled *)
  prng : Bprc_rng.Splitmix.t;
  mutable b_kind : int;  (* one of the [seg_*] kinds *)
  mutable b_rest : int;
  mutable b_pos : int;
  mutable b_skip : int;
  mutable b_any : bool;
  mutable b_regs : Obj.t register array;
  mutable b_arrows : bool register array;
  mutable b_idx : int array;
  mutable b_out : Obj.t array;  (* never a flat float array *)
  mutable b_out2 : Obj.t array;  (* likewise *)
  mutable b_cell : Obj.t register;
  mutable b_val : Obj.t;  (* the cell's value *)
  mutable handler : (unit, unit) handler;  (* see [fiber_handler] *)
}

(* Placeholder until a process slot's first fiber start. *)
let no_handler : (unit, unit) handler =
  { retc = Fun.id; exnc = raise; effc = (fun _ -> None) }

let no_cell : Obj.t register = { v = kont_none; id = -1; name = "" }

(* The explorer resets its arena on every run; skipping the stores of
   an empty slot keeps runs that never batch from paying for them. *)
let clear_batch p =
  if p.b_kind <> seg_none then begin
    p.b_kind <- seg_none;
    p.b_rest <- seg_none;
    p.b_regs <- [||];
    p.b_arrows <- [||];
    p.b_idx <- [||];
    p.b_out <- [||];
    p.b_out2 <- [||];
    p.b_cell <- no_cell;
    p.b_val <- kont_none
  end

(* The last shared access of the current step, packed into one
   immediate int so the hot path never allocates:
     -1                           no access yet
     ((reg_id + 1) lsl 2) lor k   access to [reg_id] of kind [k]
   with k = 0 read, 1 write, 2 coin flip, 3 explicit yield.  Flips and
   yields carry reg_id = -1, encoding to bare k. *)
let access_none = -1
let access_read = 0
let access_write = 1
let access_flip = 2
let access_yield = 3
let[@inline always] access_code ~reg_id k = ((reg_id + 1) lsl 2) lor k

(* BPRC_SIM_DEBUG=1 turns on the per-step internal checks: the O(n)
   adversary-choice validation (also switchable per simulator with
   [set_validate] — replay paths force it on) and the status/kont shape
   assertion guarding the [Obj.obj] casts in [step_pid], also made for
   every process of a bulk in [bulk_rounds]. *)
let debug =
  match Sys.getenv_opt "BPRC_SIM_DEBUG" with
  | None | Some ("" | "0" | "false") -> false
  | Some _ -> true

(* Assert that the [kont] payload physically matches its status tag
   before the unchecked casts: an unstarted body is a closure, a pending
   continuation is a continuation block, every other status carries
   [kont_none].  Any future drift between a tag and its payload type
   then raises here instead of turning into undefined behavior.  A
   pending batch must also have the next access of its current segment
   in range, since [batch_access] reads its arrays unchecked. *)
let check_kont_shape p st (payload : Obj.t) =
  let ok =
    if st = st_not_started then
      Obj.is_block payload && Obj.tag payload = Obj.closure_tag
    else if st = st_suspended || st = st_pending_flip || st = st_batch then
      Obj.is_block payload && Obj.tag payload = Obj.cont_tag
    else payload == kont_none
  in
  if not ok then
    invalid_arg
      (Printf.sprintf
         "Sim.step_pid: kont payload shape does not match status tag %d" st);
  if st = st_batch then begin
    let kind = p.b_kind and pos = p.b_pos in
    let in_range =
      if kind = seg_collect || kind = seg_collect2 then
        let regs = Array.length p.b_regs in
        let out = if kind = seg_collect then p.b_out else p.b_out2 in
        pos < regs && Array.length out >= regs
      else if kind = seg_cell then pos = 0 && p.b_cell != no_cell
      else
        (kind = seg_any || kind = seg_clear || kind = seg_raise)
        && pos < Array.length p.b_idx
        && p.b_idx.(pos) >= 0
        && p.b_idx.(pos) < Array.length p.b_arrows
    in
    if pos < 0 || not in_range then
      invalid_arg "Sim.step_pid: pending batch access out of range"
  end

type t = {
  n : int;
  procs : proc array;
  mutable clock : int;
  mutable spawned : int;
  rng : Bprc_rng.Splitmix.t;  (* adversary stream *)
  tr : Trace.t option;
  max_steps : int;
  mutable current : int;
  mutable adversary : Adversary.t;
  mutable next_reg_id : int;
  mutable flip_source : (pid:int -> bool) option;
  mutable flip_observer : (pid:int -> bool -> unit) option;
  mutable last_access : int;  (* packed access code, see above *)
  mutable seed : int;
  ctx : Adversary.ctx;  (* one context record, mutated in place *)
  scratch : int array array;
      (* scratch.(k) has length k; runnable_pids fills the right one in
         place, so the per-step runnable set never allocates *)
  mutable runnable_cache : int array;
      (* last result of [runnable_pids] (one of [scratch]); valid while
         [runnable_dirty] is unset and no stall is pending *)
  mutable runnable_dirty : bool;
  mutable max_stall : int;
      (* the runnable set last changes because of stalls at
         [clock = max_stall] (a pid with [stall_until = max_stall] joins
         exactly then); the cache is rebuilt every step up to and
         including that clock, and trusted afterwards *)
  mutable validate : bool;
      (* check every adversary choice against the runnable set it was
         shown; O(n) per step, so off by default — see [set_validate] *)
  mutable owner : int;
      (* id of the domain that created or last [reset] this arena; the
         scratch buffers, ctx record and effect continuations are
         single-domain state, so [step]/[run] refuse to drive the arena
         from anywhere else *)
  mutable locals : Obj.t array;
      (* arena-local storage, indexed by [local] slot; [local_absent]
         until a slot's first use, and kept across [reset] *)
  mutable resumes : int;  (* continuations resumed since [reset] *)
}

type 'a handle = { cell : 'a option ref }

type outcome = Completed | Hit_step_limit

let self_id () = (Domain.self () :> int)

let check_owner t what =
  let d = self_id () in
  if t.owner <> d then
    invalid_arg
      (Printf.sprintf
         "Sim.%s: arena owned by domain %d driven from domain %d (Sim.reset \
          adopts ownership)"
         what t.owner d)

(* The effect handler of every fiber of process [p], made once per
   process slot at its first start: deep handlers stay installed across
   resumptions, so a fiber start allocates only its stack and body
   wrapper, and [effc] — which runs on every suspension, part of the
   per-step hot path — returns a preallocated [Some] closure. *)
let fiber_handler (p : proc) : (unit, unit) handler =
  let suspend status =
    Some
      (fun (k : (unit, unit) continuation) ->
        p.status <- status;
        p.kont <- Obj.repr k)
  in
  let on_yield = suspend st_suspended and on_batch = suspend st_batch in
  let on_flip =
    Some
      (fun (k : (bool, unit) continuation) ->
        p.status <- st_pending_flip;
        p.kont <- Obj.repr k)
  in
  {
    retc = (fun () -> ());
    exnc = (fun e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield_step -> (on_yield : ((a, unit) continuation -> unit) option)
        | Flip_coin -> (on_flip : ((a, unit) continuation -> unit) option)
        | Run_batch -> (on_batch : ((a, unit) continuation -> unit) option)
        | _ -> None);
  }

(* Rewind every process slot and its RNG stream in place.  The per-pid
   streams are [fork master (pid + 1)] of a master seeded from [seed];
   [reseed_fork] composes the two without allocating generator records,
   so a reset costs field writes only. *)
let reset_procs ~seed procs =
  Array.iter
    (fun p ->
      p.status <- st_crashed (* replaced at spawn *);
      p.kont <- kont_none;
      p.steps <- 0;
      p.flips <- 0;
      p.stall_until <- 0;
      clear_batch p;
      Bprc_rng.Splitmix.reseed_fork p.prng ~seed (p.ppid + 1))
    procs

let create ?(seed = 0) ?(max_steps = 10_000_000) ?(record_trace = false) ~n
    ~adversary () =
  if n <= 0 then invalid_arg "Sim.create: n must be positive";
  let procs =
    Array.init n (fun i ->
        {
          ppid = i;
          status = st_crashed;
          kont = kont_none;
          steps = 0;
          flips = 0;
          stall_until = 0;
          prng = Bprc_rng.Splitmix.create ~seed:0;
          b_kind = seg_none;
          b_rest = seg_none;
          b_pos = 0;
          b_skip = -1;
          b_any = false;
          b_regs = [||];
          b_arrows = [||];
          b_idx = [||];
          b_out = [||];
          b_out2 = [||];
          b_cell = no_cell;
          b_val = kont_none;
          handler = no_handler;
        })
  in
  reset_procs ~seed procs;
  let rng = Bprc_rng.Splitmix.create ~seed:0 in
  Bprc_rng.Splitmix.reseed_fork rng ~seed 0;
  let tr = if record_trace then Some (Trace.create ()) else None in
  {
    n;
    procs;
    clock = 0;
    spawned = 0;
    rng;
    tr;
    max_steps;
    current = -1;
    adversary;
    next_reg_id = 0;
    flip_source = None;
    flip_observer = None;
    last_access = access_none;
    seed;
    ctx = { Adversary.clock = 0; runnable = [||]; rng };
    scratch = Array.init (n + 1) (fun k -> Array.make k 0);
    runnable_cache = [||];
    runnable_dirty = true;
    max_stall = 0;
    validate = debug;
    owner = self_id ();
    locals = [||];
    resumes = 0;
  }

let reset ?seed ?adversary t =
  (match seed with Some s -> t.seed <- s | None -> ());
  (match adversary with Some a -> t.adversary <- a | None -> ());
  reset_procs ~seed:t.seed t.procs;
  Bprc_rng.Splitmix.reseed_fork t.rng ~seed:t.seed 0;
  t.clock <- 0;
  t.spawned <- 0;
  t.current <- -1;
  t.next_reg_id <- 0;
  t.flip_source <- None;
  t.flip_observer <- None;
  t.last_access <- access_none;
  t.ctx.Adversary.clock <- 0;
  t.ctx.Adversary.runnable <- t.scratch.(0);
  t.runnable_cache <- t.scratch.(0);
  t.runnable_dirty <- true;
  t.max_stall <- 0;
  t.resumes <- 0;
  t.owner <- self_id ();
  match t.tr with None -> () | Some tr -> Trace.clear tr

(* Trace-event construction is confined to the [Some tr] branch: with
   recording off (the experiment and explorer default) an access is two
   field writes and no allocation. *)
let[@inline always] record_access t pid reg_id reg_name k kind =
  t.last_access <- (access_code [@inlined]) ~reg_id k;
  match t.tr with
  | None -> ()
  | Some tr -> Trace.record tr { Trace.time = t.clock; pid; reg_id; reg_name; kind }

(* Start process [p]'s fiber and run it until it suspends or finishes. *)
let start_fiber (p : proc) (body : unit -> unit) =
  if p.handler == no_handler then p.handler <- fiber_handler p;
  match_with
    (fun () ->
      body ();
      p.status <- st_finished;
      p.kont <- kont_none;
      clear_batch p)
    () p.handler

let draw_flip t (p : proc) =
  let b =
    match t.flip_source with
    | Some f -> f ~pid:p.ppid
    | None -> Bprc_rng.Splitmix.bool p.prng
  in
  p.flips <- p.flips + 1;
  t.last_access <- access_flip;
  (match t.tr with
  | None -> ()
  | Some tr ->
    Trace.record tr
      {
        Trace.time = t.clock;
        pid = p.ppid;
        reg_id = -1;
        reg_name = "";
        kind = Trace.Flip b;
      });
  (match t.flip_observer with Some f -> f ~pid:p.ppid b | None -> ());
  b

(* The first position of a collect segment: [b_pos] never rests on
   [b_skip]. *)
let[@inline always] collect_start p = if p.b_skip = 0 then 1 else 0

(* [p]'s current segment is done: load its program's next one.  True
   when there is none, so the program is over.  Every segment of a
   program has at least one access (see [make_runtime]). *)
let advance p =
  let kind = p.b_rest land 7 in
  if kind = seg_none then true
  else begin
    p.b_kind <- kind;
    p.b_rest <- p.b_rest lsr 3;
    p.b_pos <- (if kind <= seg_collect2 then collect_start p else 0);
    false
  end

(* Carry out the next access of [p]'s pending program exactly as the
   single [read] or [write] it stands for (see [make_runtime]) would.
   True when it was the program's last access.  The positions were
   checked against the arrays when the program was issued. *)
let[@inline always] batch_access t p =
  let i = p.b_pos and kind = p.b_kind in
  let seg_done =
    if kind <= seg_collect2 then begin
      let r = Array.unsafe_get p.b_regs i in
      Array.unsafe_set (if kind = seg_collect then p.b_out else p.b_out2) i r.v;
      (record_access [@inlined]) t p.ppid r.id r.name access_read Trace.Read;
      let next = if i + 1 = p.b_skip then i + 2 else i + 1 in
      p.b_pos <- next;
      next >= Array.length p.b_regs
    end
    else if kind = seg_cell then begin
      let r = p.b_cell in
      r.v <- p.b_val;
      (record_access [@inlined]) t p.ppid r.id r.name access_write Trace.Write;
      true
    end
    else begin
      let r = Array.unsafe_get p.b_arrows (Array.unsafe_get p.b_idx i) in
      if kind = seg_any then begin
        if r.v then p.b_any <- true;
        (record_access [@inlined]) t p.ppid r.id r.name access_read Trace.Read
      end
      else begin
        r.v <- kind = seg_raise;
        (record_access [@inlined]) t p.ppid r.id r.name access_write Trace.Write
      end;
      p.b_pos <- i + 1;
      i + 1 >= Array.length p.b_idx
    end
  in
  seg_done && advance p

(* Execute one atomic step of process [pid].  A process in [st_batch]
   stays there, fiber suspended, until the step that carries out its
   program's last access; that step resumes the fiber.  The steps
   before it touch neither the status nor [current]: [batch_access]
   names its process itself. *)
let[@inline always] step_pid t pid =
  let p = t.procs.(pid) in
  t.last_access <- access_none;
  t.clock <- t.clock + 1;
  p.steps <- p.steps + 1;
  let st = p.status in
  let payload = p.kont in
  if debug then check_kont_shape p st payload;
  if st <> st_batch || (batch_access [@inlined]) t p then begin
    t.current <- pid;
    p.status <- st_running;
    (if st = st_suspended || st = st_batch then begin
       t.resumes <- t.resumes + 1;
       continue (Obj.obj payload : (unit, unit) continuation) ()
     end
     else if st = st_pending_flip then begin
       (* [draw_flip] runs observer callbacks in scheduler context,
          where no effect handler is installed; clear [current] so a
          register helper called from an observer takes its
          outside-a-fiber no-op path instead of performing an unhandled
          effect. *)
       t.current <- -1;
       let b = draw_flip t p in
       t.current <- pid;
       t.resumes <- t.resumes + 1;
       continue (Obj.obj payload : (bool, unit) continuation) b
     end
     else if st = st_not_started then
       start_fiber p (Obj.obj payload : unit -> unit)
     else begin
       p.status <- st;
       invalid_arg "Sim.step_pid: process not runnable"
     end);
    t.current <- -1;
    if p.status > st_running then t.runnable_dirty <- true
  end

(* Fill the right-sized scratch buffer with the schedulable pids,
   ascending.  Two cheap counting passes instead of list building: the
   result is one of [t.scratch], so steady-state scheduling allocates
   nothing. *)
let rebuild_runnable t =
  let live = ref 0 and all = ref 0 in
  for i = 0 to t.n - 1 do
    let p = Array.unsafe_get t.procs i in
    if p.status <= st_batch then begin
      incr all;
      if p.stall_until <= t.clock then incr live
    end
  done;
  (* If every runnable process is stalled, ignore the stalls: the
     adversary must still schedule someone, and an asynchronous system
     cannot deadlock on stalls alone. *)
  let use_live = !live > 0 in
  let out = t.scratch.(if use_live then !live else !all) in
  let j = ref 0 in
  for i = 0 to t.n - 1 do
    let p = Array.unsafe_get t.procs i in
    if p.status <= st_batch then
      if (not use_live) || p.stall_until <= t.clock then begin
        Array.unsafe_set out !j i;
        incr j
      end
  done;
  t.runnable_cache <- out;
  t.runnable_dirty <- false;
  out

(* Membership in the runnable set depends only on process statuses and
   pending stalls, and a step leaves its process runnable unless it
   finished — so the scan is skipped entirely on the common path and
   redone only when a status changed or a stall may still expire.  The
   stall condition is inclusive: a pid with [stall_until = max_stall]
   joins the set exactly at [clock = max_stall], so the rebuild at that
   clock must still happen or the cache goes stale with the pid starved
   until an unrelated status change. *)
let[@inline always] runnable_pids t =
  if t.runnable_dirty || t.clock <= t.max_stall then rebuild_runnable t
  else t.runnable_cache

(* Inlining.  Without flambda, ocamlopt honours [@inline] only for a
   function whose body defines no closure (no [fun], no local
   [let rec]) and drops it silently otherwise.  The hot call sites of
   [step_inline], [step_pid], [batch_access], [runnable_pids],
   [rr_dense], [read_round] and [record_access] carry [@inlined], so a
   body that stops inlining is warning 55, an error in dune's dev
   profile.  That profile compiles libraries with [-opaque], so no
   [@inline] works across modules: only same-module calls inline.

   The adversary-choice check is the top-level [Adversary.is_runnable]
   for that reason: an [Array.exists (fun p -> p = pid)] in
   [step_inline] made every step a call. *)
let non_runnable t pid =
  invalid_arg
    (Printf.sprintf "Sim.step: adversary %s chose non-runnable pid %d"
       t.adversary.name pid)

(* A round-robin adversary's choice is made here, from its cursor, so
   [ctx] is filled only for a closure adversary. *)
let[@inline always] step_inline t =
  let runnable = (runnable_pids [@inlined]) t in
  if Array.length runnable = 0 then false
  else begin
    let a = t.adversary in
    let pid =
      match a.policy with
      | Adversary.Round_robin next ->
        let pid = Adversary.rr_pick runnable !next in
        next := pid + 1;
        pid
      | Adversary.Closure ->
        let ctx = t.ctx in
        ctx.Adversary.clock <- t.clock;
        (* The scratch buffer is stable across steps; skipping the
           no-op pointer store also skips its write barrier. *)
        if ctx.Adversary.runnable != runnable then
          ctx.Adversary.runnable <- runnable;
        a.choose ctx
    in
    if t.validate && not (Adversary.is_runnable runnable pid) then
      non_runnable t pid;
    (step_pid [@inlined]) t pid;
    true
  end

let step t =
  check_owner t "step";
  (step_inline [@inlined]) t

let check_ready t what =
  check_owner t what;
  if t.spawned < t.n then
    invalid_arg (Printf.sprintf "Sim.%s: fewer processes spawned than n" what)

(* The runnable set is exactly {0..m-1}, m > 0, and stays so until a
   status changes: the cache is clean and no stall is pending.  The
   stall test comes first, so [runnable_pids] rebuilds here only when a
   status changed, and the next [step_inline] finds the set cached. *)
let[@inline always] rr_dense t =
  t.clock > t.max_stall
  &&
  let r = (runnable_pids [@inlined]) t in
  let m = Array.length r in
  m > 0 && Array.unsafe_get r (m - 1) = m - 1

(* Reads still to go in the current segment of [p]'s pending program;
   0 unless it is a read segment.  [b_pos] never rests on [b_skip] (see
   [batch_access]), so a skip ahead of it costs one. *)
let reads_left p =
  if p.status <> st_batch then 0
  else
    let kind = p.b_kind in
    if kind <= seg_collect2 then
      let len = Array.length p.b_regs and s = p.b_skip in
      len - p.b_pos - if s > p.b_pos && s < len then 1 else 0
    else if kind = seg_any then Array.length p.b_idx - p.b_pos
    else 0

(* The fewest reads left over pids [i..m-1], [acc] so far; stops as
   soon as the minimum is below 2, since no bulk is possible then. *)
let rec min_reads_left procs m i acc =
  if i = m || acc < 2 then acc
  else
    let l = reads_left (Array.unsafe_get procs i) in
    min_reads_left procs m (i + 1) (if l < acc then l else acc)

(* [k] reads of [p]'s read segment, each exactly as [batch_access]
   would carry it out, none of them its last. *)
let bulk_reads p k =
  let pos = p.b_pos in
  if p.b_kind <= seg_collect2 then begin
    let regs = p.b_regs and skip = p.b_skip in
    let out = if p.b_kind = seg_collect then p.b_out else p.b_out2 in
    let i = ref pos in
    for _ = 1 to k do
      Array.unsafe_set out !i (Array.unsafe_get regs !i).v;
      i := if !i + 1 = skip then !i + 2 else !i + 1
    done;
    p.b_pos <- !i
  end
  else begin
    let arrows = p.b_arrows and idx = p.b_idx in
    for j = pos to pos + k - 1 do
      if (Array.unsafe_get arrows (Array.unsafe_get idx j)).v then
        p.b_any <- true
    done;
    p.b_pos <- pos + k
  end;
  p.steps <- p.steps + k

(* Bulk read rounds, at a round boundary of a dense stretch: when each
   of the [m] runnable processes is in a read segment with more than
   [k] reads left, the next [k] rounds are reads only — no register
   written, no fiber resumed, no segment loaded, no observer fired, no
   choice made — and reads commute, so they run process by process.
   [k] keeps every segment's last read, the one that loads the next
   segment or resumes the fiber, for [step_pid] in round order, and
   keeps the clock below both bounds.
   So pid 0's step always follows, and that step sets the cursor and
   [last_access] just as the [k]-th round would have left them before
   it; the clock, per-pid steps and batch positions and outputs are
   set here. *)
let bulk_rounds t m ~clock =
  let procs = t.procs in
  let bound = if clock < t.max_steps then clock else t.max_steps in
  let k = min_reads_left procs m 0 max_int - 1 in
  let k = if k * m < bound - t.clock then k else (bound - t.clock - 1) / m in
  if k > 0 then begin
    for i = 0 to m - 1 do
      let p = Array.unsafe_get procs i in
      if debug then check_kont_shape p st_batch p.kont;
      bulk_reads p k
    done;
    t.clock <- t.clock + (k * m)
  end

(* The per-round test that keeps [bulk_rounds] off the common path in
   O(1): no trace to record event by event, and pid 0 in a read
   segment. *)
let[@inline always] read_round t =
  t.tr == None
  &&
  let p = Array.unsafe_get t.procs 0 in
  p.status = st_batch && p.b_kind <= seg_any

(* A dense round-robin stretch: while [rr_dense] holds, round-robin
   picks [pid + 1], wrapped at [m], so the loop steps pids in turn with
   no choice to make.  The cursor is stored before every step, just as
   [choose] stores it: unwrapped, [pid + 1].  A step can end the
   stretch (a process finishes or crashes, a flip observer or a
   resumed fiber stalls a process or swaps the adversary), so every
   condition is checked again after each one, with the clock bounds of
   [steps_to].  Each wrap to pid 0 is a round boundary, where
   [bulk_rounds] may carry out whole rounds of reads at once. *)
let rec rr_stretch t a next m pid ~clock =
  next := pid + 1;
  (step_pid [@inlined]) t pid;
  if t.clock < clock && t.clock < t.max_steps && (not t.runnable_dirty)
     && t.clock > t.max_stall && t.adversary == a
  then
    if pid + 1 < m then rr_stretch t a next m (pid + 1) ~clock
    else begin
      if (read_round [@inlined]) t then bulk_rounds t m ~clock;
      rr_stretch t a next m 0 ~clock
    end

(* The one bounded stepping loop: [check_ready] has run once for the
   whole call, so a step costs [step_inline] and two compares, or,
   inside a dense round-robin stretch, [step_pid] and five.  A closure
   adversary's step is matched first: the explorer steps through that
   branch alone, and testing for the stretch before it cost the
   explorer's sweep about 1% on a 2-vCPU VM. *)
let rec steps_to t ~clock =
  if t.clock >= t.max_steps then Some Hit_step_limit
  else if t.clock >= clock then None
  else
    let a = t.adversary in
    match a.policy with
    | Adversary.Closure ->
      if (step_inline [@inlined]) t then steps_to t ~clock
      else Some Completed
    | Adversary.Round_robin next ->
      if (rr_dense [@inlined]) t then begin
        let m = Array.length t.runnable_cache in
        let nxt = !next in
        rr_stretch t a next m (if nxt < m then nxt else 0) ~clock;
        steps_to t ~clock
      end
      else if (step_inline [@inlined]) t then steps_to t ~clock
      else Some Completed

let run_to t ~clock =
  check_ready t "run_to";
  steps_to t ~clock

let run t =
  check_ready t "run";
  (* The clock cannot reach [max_int] before the arena's bound. *)
  match steps_to t ~clock:max_int with Some o -> o | None -> Hit_step_limit

let spawn t f =
  if t.spawned >= t.n then invalid_arg "Sim.spawn: already spawned n processes";
  let pid = t.spawned in
  t.spawned <- t.spawned + 1;
  let cell = ref None in
  let body () = cell := Some (f ()) in
  let p = t.procs.(pid) in
  p.status <- st_not_started;
  p.kont <- Obj.repr (body : unit -> unit);
  t.runnable_dirty <- true;
  { cell }

let result h = !(h.cell)

let crash t pid =
  let p = t.procs.(pid) in
  if p.status <> st_finished then begin
    p.status <- st_crashed;
    p.kont <- kont_none;
    clear_batch p;
    t.runnable_dirty <- true
  end

let stall t pid ~steps =
  if steps < 0 then invalid_arg "Sim.stall: negative duration";
  let p = t.procs.(pid) in
  p.stall_until <- max p.stall_until (t.clock + steps);
  t.max_stall <- max t.max_stall p.stall_until

let crashed t pid = t.procs.(pid).status = st_crashed
let finished t pid = t.procs.(pid).status = st_finished
let clock t = t.clock
let n t = t.n
let registers_created t = t.next_reg_id
let max_steps t = t.max_steps
let steps_of t pid = t.procs.(pid).steps
let flips_of t pid = t.procs.(pid).flips
let trace t = t.tr
let last_access_code t = t.last_access
let resumes t = t.resumes

let set_flip_source t f = t.flip_source <- Some f
let set_flip_observer t f = t.flip_observer <- Some f
let set_validate t on = t.validate <- on
let set_adversary t a = t.adversary <- a

(* A yield performed outside any fiber (setup or checker code) must be
   a no-op rather than an error, so register helpers can be reused for
   initialization.  [t.current >= 0] holds exactly while a fiber of
   this simulator is being stepped (the scheduler clears it around
   observer callbacks), so the guard replaces a per-access [try]/[with]
   on [Effect.Unhandled] — an exception frame saved on every step.

   A batch is issued to the scheduler only from inside a fiber, with
   at least one access in every segment and two in all, and into
   arrays that are not flat float arrays, since the scheduler stores
   through an [Obj.t] array.  Anything else (n = 1 for the handshake's
   programs) runs the documented loop of single accesses, so a batch of
   one access costs exactly one access. *)
let make_runtime (t : t) : (module Runtime_intf.BATCHED) =
  let module S = struct
    type 'a reg = 'a register

    let make_reg ?(name = "r") v =
      let id = t.next_reg_id in
      t.next_reg_id <- id + 1;
      { v; id; name }

    let read r =
      if t.current >= 0 then perform Yield_step;
      let v = r.v in
      (record_access [@inlined]) t t.current r.id r.name access_read Trace.Read;
      v

    let write r v =
      if t.current >= 0 then perform Yield_step;
      r.v <- v;
      (record_access [@inlined]) t t.current r.id r.name access_write Trace.Write

    let peek r = r.v
    let poke r v = r.v <- v

    let flip () =
      if t.current >= 0 then perform Flip_coin
      else Bprc_rng.Splitmix.bool t.rng

    let pid () = t.current
    let n = t.n
    let now () = t.clock

    let yield () =
      if t.current >= 0 then perform Yield_step;
      (record_access [@inlined]) t t.current (-1) "" access_yield Trace.Step
  end in
  (module struct
    include S
    module L = Runtime_intf.Loop (S)

    (* Fill the calling process's batch slot with a program starting
       with a segment of [kind], then followed by [rest]; [perform
       Run_batch] hands it to the scheduler.  Every pointer store below
       is skipped when the slot already holds the array (a process's
       repeated scans), which also skips its write barrier. *)
    let slot kind rest =
      let p = Array.unsafe_get t.procs t.current in
      p.b_kind <- kind;
      p.b_rest <- rest;
      p

    let set_regs p regs =
      if Obj.repr p.b_regs != Obj.repr regs then
        p.b_regs <- (Obj.magic (regs : _ register array) : Obj.t register array)

    let set_out p out =
      if Obj.repr p.b_out != Obj.repr out then
        p.b_out <- (Obj.magic (out : _ array) : Obj.t array)

    let set_arrows p arrows idx =
      for k = 0 to Array.length idx - 1 do
        let i = Array.unsafe_get idx k in
        if i < 0 || i >= Array.length arrows then
          invalid_arg "Sim: batch index out of range"
      done;
      if p.b_arrows != arrows then p.b_arrows <- arrows;
      if p.b_idx != idx then p.b_idx <- idx

    let check_out what regs out =
      if Array.length out < Array.length regs then
        invalid_arg (Printf.sprintf "Sim.%s: out is shorter than regs" what)

    let flat out = Obj.tag (Obj.repr out) = Obj.double_array_tag

    (* Reads of a collect of [regs] skipping [skip]. *)
    let reads regs skip =
      let len = Array.length regs in
      if skip >= 0 && skip < len then len - 1 else len

    let collect regs ~skip out =
      check_out "collect" regs out;
      if reads regs skip >= 2 && t.current >= 0 && not (flat out) then begin
        let p = slot seg_collect seg_none in
        set_regs p regs;
        p.b_skip <- skip;
        p.b_pos <- collect_start p;
        set_out p out;
        perform Run_batch
      end
      else L.collect regs ~skip out

    let scan_attempt arrows idx regs ~skip v1 v2 =
      check_out "scan_attempt" regs v1;
      check_out "scan_attempt" regs v2;
      if Array.length idx > 0 && reads regs skip > 0 && t.current >= 0
         && (not (flat v1)) && not (flat v2)
      then begin
        let p = slot seg_clear scan_rest in
        set_arrows p arrows idx;
        p.b_pos <- 0;
        set_regs p regs;
        p.b_skip <- skip;
        set_out p v1;
        if Obj.repr p.b_out2 != Obj.repr v2 then
          p.b_out2 <- (Obj.magic (v2 : _ array) : Obj.t array);
        p.b_any <- false;
        perform Run_batch;
        p.b_any
      end
      else L.scan_attempt arrows idx regs ~skip v1 v2

    let update arrows idx r v =
      if Array.length idx > 0 && t.current >= 0 then begin
        let p = slot seg_raise update_rest in
        set_arrows p arrows idx;
        p.b_pos <- 0;
        let cell = (Obj.magic (r : _ register) : Obj.t register) in
        if p.b_cell != cell then p.b_cell <- cell;
        p.b_val <- Obj.repr v;
        perform Run_batch
      end
      else L.update arrows idx r v
  end : Runtime_intf.BATCHED)

(* Arena-local storage.  Slots are numbered process-wide; an arena's
   [locals] array grows to the highest slot it has used.  The sentinel
   is a private block, so no stored value can be mistaken for it. *)
type 'a local = { index : int; init : t -> 'a }

let locals_made = Atomic.make 0
let local_absent = Obj.repr (ref ())
let new_local init = { index = Atomic.fetch_and_add locals_made 1; init }

let local t l =
  let i = l.index in
  if i >= Array.length t.locals then begin
    let grown = Array.make (i + 1) local_absent in
    Array.blit t.locals 0 grown 0 (Array.length t.locals);
    t.locals <- grown
  end;
  let v = Array.unsafe_get t.locals i in
  if v != local_absent then (Obj.obj v : 'a)
  else begin
    let x = l.init t in
    t.locals.(i) <- Obj.repr x;
    x
  end

(* The module is pure closure state over [t] and the mli promises it
   stays valid across [reset], so it is built once per arena: per-run
   callers (the explorer's setup closures) get the same physical module
   instead of fresh closures per run.  Its [S] view is kept beside it,
   since coercing a first-class module builds a new block. *)
type runtimes = {
  batched : (module Runtime_intf.BATCHED);
  plain : (module Runtime_intf.S);
}

let runtime_slot =
  new_local (fun t ->
      let (module B) = make_runtime t in
      { batched = (module B); plain = (module B : Runtime_intf.S) })

let runtime t = (local t runtime_slot).plain
let batched t = (local t runtime_slot).batched
