module type SPEC = sig
  type state
  type op

  val name : string
  val init : state
  val apply : state -> op -> state option
  val pp_op : Format.formatter -> op -> unit
end

let max_events = 62

(* Memo table for the failed (linearized-set, state) pairs of one
   [check] call, reused across calls: the explorer checks one short
   history per explored schedule, and even a 16-bucket table per call
   is measurable at that rate.  Per-domain so that checks run at once
   on several domains (a caller mapping them over a pool) never share
   a table, and [Hashtbl.reset] between checks, which also shrinks a
   table grown by an unusually deep search back to its initial size.
   One key serves every application of {!Make}: a key per application
   would take a process-wide index and leave every domain that checks
   with a table it never frees.  So the keys
   hold states erased to [Obj.t]; each check resets the table before
   its first lookup, so states of two specs never meet, and the table
   hashes and compares them structurally as it would typed ones. *)
let failed_key : (int * Obj.t, unit) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 16)

module Make (S : SPEC) = struct
  type verdict =
    | Linearizable of S.op Hist.event list
    | Not_linearizable

  let check_events ops =
    let n = Array.length ops in
    if n > max_events then
      invalid_arg
        (Printf.sprintf "Lin.check (%s): more than %d operations" S.name
           max_events);
    if n = 0 then Linearizable []
    else begin
      (* preds.(i) = bitmask of operations that must precede i (real-time
         order); an operation is a candidate only once all its
         predecessors are linearized. *)
      let preds =
        Array.init n (fun i ->
            let m = ref 0 in
            for j = 0 to n - 1 do
              if j <> i && Hist.precedes ops.(j) ops.(i) then
                m := !m lor (1 lsl j)
            done;
            !m)
      in
      let full = (1 lsl n) - 1 in
      let failed = Domain.DLS.get failed_key in
      Hashtbl.reset failed;
      let rec go mask st acc =
        if mask = full then Some acc
        else begin
          (* One key tuple per node, shared by the lookup and the
             failure insertion; the search loop tracks progress with a
             flag rather than comparing [!result] against [None], which
             would call the polymorphic equality on every iteration. *)
          let key = (mask, Obj.repr st) in
          if Hashtbl.mem failed key then None
          else begin
            let result = ref None in
            let found = ref false in
            let i = ref 0 in
            while (not !found) && !i < n do
              let idx = !i in
              incr i;
              let bit = 1 lsl idx in
              if mask land bit = 0 && preds.(idx) land lnot mask = 0 then
                match S.apply st ops.(idx).Hist.op with
                | Some st' -> (
                  match go (mask lor bit) st' (idx :: acc) with
                  | Some _ as r ->
                    result := r;
                    found := true
                  | None -> ())
                | None -> ()
            done;
            if not !found then Hashtbl.add failed key ();
            !result
          end
        end
      in
      match go 0 S.init [] with
      | Some rev_order -> Linearizable (List.rev_map (fun i -> ops.(i)) rev_order)
      | None -> Not_linearizable
    end

  let check events = check_events (Array.of_list events)

  let linearizable ops =
    match check_events ops with
    | Linearizable _ -> true
    | Not_linearizable -> false
end
