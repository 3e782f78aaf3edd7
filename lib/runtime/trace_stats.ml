type t = {
  events : int;
  reads : int;
  writes : int;
  flips : int;
  per_process : (int * int) array;
  hottest_registers : (string * int) list;
  longest_monopoly : int;
}

(* How many registers [hottest_registers] lists. *)
let top = 5

let analyze trace ~n =
  let reads = ref 0 and writes = ref 0 and flips = ref 0 in
  let per = Array.make n (0, 0) in
  let regs : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let monopoly = ref 0 in
  let best_monopoly = ref 0 in
  let last_pid = ref (-1) in
  Trace.iter
    (fun e ->
      (if e.Trace.pid = !last_pid then incr monopoly else monopoly := 1);
      last_pid := e.Trace.pid;
      if !monopoly > !best_monopoly then best_monopoly := !monopoly;
      (if e.Trace.pid >= 0 && e.Trace.pid < n then
         let s, f = per.(e.Trace.pid) in
         match e.Trace.kind with
         | Trace.Flip _ -> per.(e.Trace.pid) <- (s + 1, f + 1)
         | _ -> per.(e.Trace.pid) <- (s + 1, f));
      (match e.Trace.kind with
      | Trace.Read -> incr reads
      | Trace.Write -> incr writes
      | Trace.Flip _ -> incr flips
      | Trace.Step -> ());
      if e.Trace.reg_id >= 0 then
        let key = e.Trace.reg_name in
        Hashtbl.replace regs key
          (1 + Option.value ~default:0 (Hashtbl.find_opt regs key)))
    trace;
  let hottest =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) regs []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.filteri (fun i _ -> i < top)
  in
  {
    events = Trace.length trace;
    reads = !reads;
    writes = !writes;
    flips = !flips;
    per_process = per;
    hottest_registers = hottest;
    longest_monopoly = !best_monopoly;
  }

let pp ppf t =
  Fmt.pf ppf "@[<v>events: %d (%d reads, %d writes, %d flips)@," t.events
    t.reads t.writes t.flips;
  Array.iteri
    (fun pid (steps, flips) ->
      Fmt.pf ppf "p%d: %d events, %d flips@," pid steps flips)
    t.per_process;
  Fmt.pf ppf "hottest registers:@,";
  List.iter
    (fun (name, hits) -> Fmt.pf ppf "  %-24s %d@," name hits)
    t.hottest_registers;
  Fmt.pf ppf "longest single-process monopoly: %d@]" t.longest_monopoly
