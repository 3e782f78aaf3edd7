(* The untraced run of one workload: set up several times, warm up, then
   take as many fixed-work samples as the requested seconds stand for,
   timing the machine-speed probe ({!Meter.probe_s}) after each set-up
   and between samples.  Every timing is scaled to the probe's reference
   speed — a sample's by the mean of the probes on either side of it —
   and reported as the median over the samples or set-ups; the unscaled
   values and the probe times go into the report as [raw.*] and
   [probe_s]. *)

module W = Workloads

let setup_reps = 21
let min_samples = 3

(* Past this share of the requested seconds, a run keeps the samples it
   has (at least [min_samples]), so a slow machine stretches a run by
   half at most. *)
let give_up = 1.5

let samples_for ~seconds (w : Catalog.workload) =
  max min_samples (int_of_float (Float.round (seconds /. w.Catalog.sample_s)))

(* Set up [setup_reps] times, releasing all but the last set-up; each
   set-up's time comes with the probe timed right after it. *)
let set_up ~scale ~seed w =
  let rec go k times =
    let t0 = Meter.now_ns () in
    let inputs = W.prepare ~scale ~seed w in
    let t = Meter.since_s t0 in
    let times = (t, Meter.probe_s ()) :: times in
    if k <= 1 then (inputs, times)
    else begin
      W.close inputs;
      go (k - 1) times
    end
  in
  go setup_reps []

(* Wrong outputs anywhere, and exact counts that differ between
   samples: both make a run incorrect. *)
let problems (samples : W.sample list) =
  let violations = List.concat_map (fun s -> s.W.violations) samples in
  let exact =
    match samples with
    | [] -> []
    | s0 :: rest ->
      List.filter_map
        (fun s ->
          if s.W.exact = s0.W.exact then None
          else
            Some
              (Printf.sprintf "exact counts differ between samples: %s"
                 (String.concat ", "
                    (List.map
                       (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                       s.W.exact))))
        rest
  in
  List.sort_uniq compare violations @ exact

let ms_percentile p (s : W.sample) = 1000.0 *. Meter.percentile p s.W.latencies_s

(* Each timing of a sample, given the factor that scales the sample's
   times to the probe's reference speed. *)
let sample_values (samples : (W.sample * float) list) =
  let each f = List.map f samples in
  [
    ("ops_per_s", each (fun (s, k) -> float_of_int s.W.ops /. (s.W.wall_s *. k)));
    ("latency_p50_ms", each (fun (s, k) -> k *. ms_percentile 50.0 s));
    ("latency_p90_ms", each (fun (s, k) -> k *. ms_percentile 90.0 s));
  ]

let scale_to_reference probe = Meter.probe_ref_s /. probe

let untraced ~scale ~seed ~seconds (w : Catalog.workload) =
  let inputs, setups = set_up ~scale ~seed w in
  let warm = W.sample inputs in
  let t0 = Meter.now_ns () in
  let want = samples_for ~seconds w in
  (* (sample, probe before, probe after), newest first *)
  let rec loop acc probe k =
    if k >= want || (k >= min_samples && Meter.since_s t0 >= give_up *. seconds) then
      List.rev acc
    else
      let s = W.sample inputs in
      let after = Meter.probe_s () in
      loop ((s, probe, after) :: acc) after (k + 1)
  in
  let timed = loop [] (Meter.probe_s ()) 0 in
  W.close inputs;
  let samples = List.map (fun (s, _, _) -> s) timed in
  let scaled =
    List.map (fun (s, a, b) -> (s, scale_to_reference ((a +. b) /. 2.0))) timed
  in
  let raw = List.map (fun s -> (s, 1.0)) samples in
  let per_sample =
    sample_values scaled
    @ [
        ("setup_s", List.map (fun (t, p) -> t *. scale_to_reference p) setups);
        ("peak_rss_mb", [ Meter.peak_rss_mib () ]);
      ]
    @ List.map (fun (k, xs) -> ("raw." ^ k, xs)) (sample_values raw)
    @ [
        ("raw.setup_s", List.map fst setups);
        ("probe_s", List.map (fun (_, _, p) -> p) timed);
      ]
  in
  {
    Outcome.workload = w.Catalog.name;
    seed;
    correct = problems (warm :: samples) = [];
    problems = problems (warm :: samples);
    attempted = List.fold_left (fun a s -> a + s.W.attempted) 0 samples;
    failed = List.fold_left (fun a s -> a + s.W.failed) 0 samples;
    metrics =
      List.map
        (fun m ->
          let name = m.Catalog.m_name in
          (name, Meter.median (List.assoc name per_sample)))
        Catalog.end_to_end;
    samples = per_sample;
    exact = warm.W.exact;
    detail = [];
  }
