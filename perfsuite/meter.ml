(* Clocks, order statistics and process gauges shared by the workloads,
   the traced run and the report tools. *)

(* CLOCK_MONOTONIC in nanoseconds.  The stub is unboxed and noalloc, so
   reading it inside the traced runtime's per-access wrapper allocates
   nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let since_s t0 = float_of_int (now_ns () - t0) *. 1e-9
let ns_to_s ns = float_of_int ns *. 1e-9

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* statistics.median *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* statistics.quantiles(xs, n=4) with Python's default "exclusive"
   method, so the quartiles this tool reports are the ones the
   spread-over-median acceptance arithmetic uses.  One point is its own
   quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* Linear-interpolation percentile ([p] in [0, 100]) of a latency array;
   [nan] when empty. *)
let percentile p (xs : float array) =
  if Array.length xs = 0 then nan
  else Bprc_harness.Stats.percentile p (Array.to_list xs)

(* ---- machine-speed probe ------------------------------------------------ *)

(* A shared host's speed wanders: for minutes at a time every sample of a
   run, the fastest included, can read 10-35% slower than in the run
   before.  The probe is fixed work in plain OCaml — an integer
   recurrence and a pointer chase around a 256 KiB ring — that calls no
   bprc code and allocates nothing, so no change to the repository or to
   the collector's state can move it; timed between samples, it tracks
   the host's speed, and the runs scale their timings by it. *)
let ring =
  lazy
    (let n = 1 lsl 15 in
     let order = Array.init n Fun.id in
     let x = ref 0x5EED in
     for i = n - 1 downto 1 do
       x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
       let j = !x mod (i + 1) in
       let t = order.(i) in
       order.(i) <- order.(j);
       order.(j) <- t
     done;
     (* One cycle through every slot, in shuffled order. *)
     let next = Array.make n 0 in
     Array.iteri (fun i slot -> next.(slot) <- order.((i + 1) mod n)) order;
     next)

let probe_work () =
  let x = ref 1 in
  for i = 1 to 5_000_000 do
    x := ((!x * 1103515245) + i) land 0xFFFFFFF
  done;
  let next = Lazy.force ring in
  let p = ref 0 in
  for _ = 1 to 1_000_000 do
    p := Array.unsafe_get next !p
  done;
  !x + !p

(* Seconds the probe takes once. *)
let probe_s () =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (probe_work ()));
  since_s t0

(* The probe's time on the reference machine (a 2-vCPU Xeon VM, OCaml
   5.1.1) in a quiet phase.  A timing scaled by [probe_ref_s /. probe]
   reads as it would on that machine at that speed. *)
let probe_ref_s = 0.0133

(* Peak resident set (VmHWM) of this process in MiB. *)
let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Minor words allocated by this domain plus every helper of [pool], and
   this process's major collections: the GC side of a measured
   interval. *)
type gc_mark = { minor : float; major : int }

let gc_mark pool =
  let st = Gc.quick_stat () in
  let helpers =
    match pool with
    | Some p -> Bprc_harness.Pool.helper_minor_words p
    | None -> 0.0
  in
  { minor = st.Gc.minor_words +. helpers; major = st.Gc.major_collections }

let gc_delta pool m0 =
  let m1 = gc_mark pool in
  (m1.minor -. m0.minor, m1.major - m0.major)
