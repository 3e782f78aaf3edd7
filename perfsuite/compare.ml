(* The verdict rule for one (workload, end-to-end metric) between a
   baseline A and a candidate B.

   Each side is one or more run reports.  With several, a side's values
   are its runs' reported values; with one, its per-sample values stand
   in for the run-to-run spread.  With the metric's bound b, and a side's
   spread = (q3 - q1) / median of its values:

   - unresolved: either side's spread is wider than b, unless every B
     value is better than every A value (improved) or every one worse
     (regressed);
   - regressed: B's median is worse than A's by more than b;
   - improved: only from paired runs (as many per side, alternated) —
     B wins at least nine tenths of the pairs and its median is better
     than A's by more than A's own spread;
   - within-noise: anything else.

   Exact counts are compared separately: two reports of one seed must
   repeat them. *)

type verdict = Improved | Within_noise | Regressed | Unresolved

let name = function
  | Improved -> "improved"
  | Within_noise -> "within-noise"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

type row = {
  workload : string;
  metric : string;
  a : float * float * float;  (** q1, median, q3 *)
  b : float * float * float;
  change : float;  (** relative, positive = better *)
  wins : (int * int) option;  (** pairs B won, pairs *)
  verdict : verdict;
}

let spread (q1, m, q3) = if m = 0.0 then infinity else (q3 -. q1) /. Float.abs m

let decide ~(better : Catalog.better) ~bound ~paired a_vals b_vals =
  let sign = match better with Catalog.Higher -> 1.0 | Catalog.Lower -> -1.0 in
  let a = Meter.quartiles a_vals and b = Meter.quartiles b_vals in
  let (_, am, _), (_, bm, _) = (a, b) in
  let change = sign *. (bm -. am) /. Float.abs am in
  let beats x y = sign *. (x -. y) > 0.0 in
  let wins =
    if paired then
      Some
        ( List.length (List.filter Fun.id (List.map2 beats b_vals a_vals)),
          List.length a_vals )
    else None
  in
  let all_better = List.for_all (fun x -> List.for_all (beats x) a_vals) b_vals in
  let all_worse = List.for_all (fun x -> List.for_all (fun y -> beats y x) a_vals) b_vals in
  let gain =
    match wins with Some (w, k) -> 10 * w >= 9 * k && change > spread a | None -> false
  in
  let verdict =
    if spread a > bound || spread b > bound then
      if all_better then Improved else if all_worse then Regressed else Unresolved
    else if change < -.bound then Regressed
    else if gain then Improved
    else Within_noise
  in
  (a, b, change, wins, verdict)

(* A side's values for one workload and metric, and how many runs
   they came from: each run's reported value, or a lone run's
   samples. *)
let side_values (reports : Outcome.t list) workload metric =
  let find field (o : Outcome.t) =
    if o.Outcome.workload = workload then List.assoc_opt metric (field o) else None
  in
  match List.filter_map (find (fun o -> o.Outcome.metrics)) reports with
  | [ _ ] ->
    (List.concat (List.filter_map (find (fun o -> o.Outcome.samples)) reports), 1)
  | runs -> (runs, List.length runs)

let rows ~(a : Outcome.t list) ~(b : Outcome.t list) =
  List.concat_map
    (fun (w : Catalog.workload) ->
      List.filter_map
        (fun (m : Catalog.metric) ->
          match (side_values a w.name m.m_name, side_values b w.name m.m_name) with
          | ([], _), _ | _, ([], _) -> None
          | (av, ka), (bv, kb) ->
            let qa, qb, change, wins, verdict =
              decide ~better:m.better ~bound:m.bound ~paired:(ka > 1 && ka = kb)
                av bv
            in
            Some
              { workload = w.name; metric = m.m_name; a = qa; b = qb; change; wins; verdict })
        Catalog.end_to_end)
    Catalog.workloads

(* Workloads whose exact counts differ between two runs of one seed. *)
let exact_mismatches ~(a : Outcome.t list) ~(b : Outcome.t list) =
  List.concat_map
    (fun (x : Outcome.t) ->
      List.filter_map
        (fun (y : Outcome.t) ->
          if
            x.Outcome.workload = y.Outcome.workload && x.Outcome.seed = y.Outcome.seed
            && x.Outcome.exact <> y.Outcome.exact
          then Some x.Outcome.workload
          else None)
        b)
    a
  |> List.sort_uniq compare

let print rows =
  Printf.printf "%-22s %-15s %27s %27s %8s %7s  %s\n" "workload" "metric"
    "A q1/median/q3" "B q1/median/q3" "change" "wins" "verdict";
  List.iter
    (fun r ->
      let q (x, y, z) = Printf.sprintf "%.4g/%.4g/%.4g" x y z in
      Printf.printf "%-22s %-15s %27s %27s %+7.1f%% %7s  %s\n" r.workload r.metric
        (q r.a) (q r.b) (100.0 *. r.change)
        (match r.wins with Some (w, k) -> Printf.sprintf "%d/%d" w k | None -> "-")
        (name r.verdict))
    rows
