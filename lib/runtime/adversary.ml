type ctx = {
  mutable clock : int;
  mutable runnable : int array;
  rng : Bprc_rng.Splitmix.t;
}

type policy = Closure | Round_robin of int ref
type t = { name : string; choose : ctx -> int; policy : policy }

let make ~name choose = { name; choose; policy = Closure }

(* Top-level so no [choose] allocates a closure per call, and so that
   [Sim] can validate a choice with the same test. *)
let rec mem_from runnable pid i =
  i < Array.length runnable
  && (Array.unsafe_get runnable i = pid || mem_from runnable pid (i + 1))

let is_runnable runnable pid = mem_from runnable pid 0

(* [i < m] is an invariant ([m] is the array length, and element 0
   exists because every caller passes a nonempty runnable set), so the
   reads are unchecked. *)
let rec rr_find candidates m nxt i =
  let c = Array.unsafe_get candidates i in
  if c >= nxt then c
  else if i + 1 < m then rr_find candidates m nxt (i + 1)
  else Array.unsafe_get candidates 0

let rr_pick candidates nxt =
  let m = Array.length candidates in
  (* Dense fast path: the runnable pids are sorted and distinct, so
     last = m-1 means the set is exactly {0..m-1} and the scan's answer
     is [nxt] itself (or the wrap to 0) — no data-dependent loop, which
     would mispredict once per step. *)
  if Array.unsafe_get candidates (m - 1) = m - 1 then
    if nxt < m then nxt else Array.unsafe_get candidates 0
  else rr_find candidates m nxt 0

let round_robin () =
  let next = ref 0 in
  let choose ctx =
    let pid = rr_pick ctx.runnable !next in
    next := pid + 1;
    pid
  in
  { name = "round-robin"; choose; policy = Round_robin next }

(* A uniform runnable pid. *)
let pick ctx =
  ctx.runnable.(Bprc_rng.Splitmix.int ctx.rng (Array.length ctx.runnable))

let random () = make ~name:"random" pick

let bursty ~burst () =
  if burst <= 0 then invalid_arg "Adversary.bursty: burst must be positive";
  let current = ref (-1) in
  let remaining = ref 0 in
  let choose ctx =
    if !remaining > 0 && is_runnable ctx.runnable !current then begin
      decr remaining;
      !current
    end
    else begin
      current := pick ctx;
      remaining := burst - 1;
      !current
    end
  in
  make ~name:(Printf.sprintf "bursty-%d" burst) choose

let rec first_runnable runnable = function
  | [] -> -1
  | pid :: rest ->
    if is_runnable runnable pid then pid else first_runnable runnable rest

let prioritize ~favored () =
  let rr = round_robin () in
  let choose ctx =
    let pid = first_runnable ctx.runnable favored in
    if pid >= 0 then pid else rr.choose ctx
  in
  make ~name:"prioritize" choose

let scripted ~choices ~fallback () =
  let script = ref choices in
  let choose ctx =
    match !script with
    | [] -> fallback.choose ctx
    | c :: rest ->
      script := rest;
      ctx.runnable.(c mod Array.length ctx.runnable)
  in
  make ~name:"scripted" choose
