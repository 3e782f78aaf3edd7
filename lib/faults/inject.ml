open Bprc_runtime

(* ------------------------------------------------------------------ *)
(* Register weakening                                                  *)
(* ------------------------------------------------------------------ *)

let weaken_runtime (rt : (module Runtime_intf.S)) ~(plan : Fault_plan.t) :
    (module Runtime_intf.S) =
  if not (Fault_plan.weakens plan) then rt
  else
    let (module B : Runtime_intf.S) = rt in
    let counter = ref 0 in
    (module struct
      type 'a wrec = { w_start : int; mutable w_finish : int; w_value : 'a }

      type 'a weak = {
        base : 'a B.reg;
        sem : Fault_plan.semantics;
        writes : 'a wrec Bprc_util.Vec.t;
        init : 'a;
      }

      type 'a reg = Plain of 'a B.reg | Weak of 'a weak

      let make_reg ?(name = "r") v =
        let index = !counter in
        incr counter;
        let base = B.make_reg ~name v in
        match Fault_plan.weaken_target plan ~index with
        | None -> Plain base
        | Some sem ->
          Weak { base; sem; writes = Bprc_util.Vec.create (); init = v }

      (* A choice in [0, k) driven by base-runtime flips: deterministic
         under replay, enumerable by the explorer.  Slightly biased
         toward low indices when k is not a power of two (rejection
         sampling would give the explorer unbounded flip branches); any
         candidate is legal, so the bias is harmless. *)
      let flip_choice k =
        if k <= 1 then 0
        else begin
          let bits = ref 0 in
          let width = ref 1 in
          while !width < k do
            width := !width * 2;
            bits := (2 * !bits) + if B.flip () then 1 else 0
          done;
          !bits mod k
        end

      let committed_before w time =
        let best = ref None in
        Bprc_util.Vec.iter
          (fun r ->
            if r.w_finish <= time then
              match !best with
              | Some b when b.w_finish >= r.w_finish -> ()
              | _ -> best := Some r)
          w.writes;
        match !best with Some r -> r.w_value | None -> w.init

      let read = function
        | Plain r -> B.read r
        | Weak w ->
          (* Two steps: widen the read into an interval so writes can
             overlap it — the precondition for weak behavior. *)
          let rd_start = B.now () in
          let v = B.read w.base in
          B.yield ();
          let rd_end = B.now () in
          (* Strict comparisons: a write that commits exactly when the
             read starts (or starts exactly when it ends) is adjacent,
             not overlapping — otherwise even sequential same-process
             code would trigger weak behavior. *)
          let overlapping =
            Bprc_util.Vec.fold
              (fun acc r ->
                if r.w_start < rd_end && r.w_finish > rd_start then
                  r.w_value :: acc
                else acc)
              [] w.writes
          in
          if overlapping = [] then v
          else begin
            match w.sem with
            | Fault_plan.Safe ->
              (* A safe register returns an arbitrary domain value when
                 overlapped.  The domain is polymorphic and cannot be
                 enumerated, so we approximate "arbitrary" by any value
                 ever written (or the initial one) — already enough to
                 return values from the distant past. *)
              let candidates =
                w.init
                :: Bprc_util.Vec.fold (fun acc r -> r.w_value :: acc) [] w.writes
              in
              let arr = Array.of_list candidates in
              arr.(flip_choice (Array.length arr))
            | Fault_plan.Regular ->
              let arr =
                Array.of_list (committed_before w rd_start :: overlapping)
              in
              arr.(flip_choice (Array.length arr))
          end

      let write r v =
        match r with
        | Plain r -> B.write r v
        | Weak w ->
          (* Two steps: the write is pending (overlappable) after the
             first and committed after the second. *)
          let rec_ = { w_start = B.now (); w_finish = max_int; w_value = v } in
          Bprc_util.Vec.push w.writes rec_;
          B.yield ();
          B.write w.base v;
          rec_.w_finish <- B.now ()

      let peek = function Plain r -> B.peek r | Weak w -> B.peek w.base

      let poke r v =
        match r with Plain r -> B.poke r v | Weak w -> B.poke w.base v

      let flip = B.flip
      let pid = B.pid
      let n = B.n
      let now = B.now
      let yield = B.yield
    end : Runtime_intf.S)

let weaken_batched (rt : (module Runtime_intf.BATCHED)) ~plan :
    (module Runtime_intf.BATCHED) =
  if not (Fault_plan.weakens plan) then rt
  else
    let (module B) = rt in
    let (module W) = weaken_runtime (module B : Runtime_intf.S) ~plan in
    (module Runtime_intf.Loop (W))

(* ------------------------------------------------------------------ *)
(* Process faults (crash / stall)                                      *)
(* ------------------------------------------------------------------ *)

type driver = { mutable pending : Fault_plan.fault list }

let driver ~n (plan : Fault_plan.t) =
  {
    pending =
      List.filter
        (function
          | Fault_plan.Crash { pid; _ } | Fault_plan.Stall { pid; _ } ->
            pid >= 0 && pid < n
          | _ -> false)
        plan;
  }

let fire d sim =
  match d.pending with
  | [] -> ()
  | pending ->
    d.pending <-
      List.filter
        (fun f ->
          match f with
          | Fault_plan.Crash { pid; at_step } ->
            if Sim.steps_of sim pid >= at_step then begin
              Sim.crash sim pid;
              false
            end
            else true
          | Fault_plan.Stall { pid; at_step; steps } ->
            if Sim.steps_of sim pid >= at_step then begin
              Sim.stall sim pid ~steps;
              false
            end
            else true
          | _ -> false)
        pending

(* The earliest clock at which a pending fault can fall due, capped at
   [until].  A process takes at most one step per tick of the global
   clock, so a fault [at_step - steps_of pid] of its process's steps
   away cannot fall due sooner than that many ticks from now.  Right
   after [fire], every pending fault is at least one step away.  Gaps
   are compared rather than added to [now], so a huge [at_step] cannot
   overflow. *)
let next_due d sim ~until =
  let now = Sim.clock sim in
  List.fold_left
    (fun acc f ->
      match f with
      | Fault_plan.Crash { pid; at_step } | Fault_plan.Stall { pid; at_step; _ }
        ->
        let gap = at_step - Sim.steps_of sim pid in
        if gap < acc - now then now + gap else acc
      | _ -> acc)
    until d.pending

(* Fire what is due, then run uninterrupted to the earliest clock at
   which anything can next fall due.  Nothing can fall due in between,
   so every fault fires at exactly the step a fire-before-every-step
   loop would fire it at. *)
let drive sim ~driver ~max_steps =
  let max_steps = min max_steps (Sim.max_steps sim) in
  let rec go () =
    fire driver sim;
    if Sim.clock sim >= max_steps then false
    else
      match Sim.run_to sim ~clock:(next_due driver sim ~until:max_steps) with
      | Some Sim.Completed -> true
      | Some Sim.Hit_step_limit | None -> go ()
  in
  go ()
