type obs = {
  spid : int;
  writes : int array;
  rows : Bytes.t array;
}

type report = {
  scans_checked : int;
  max_virtual_round : int;
  final_rounds : int array;
}

let compare_views a b =
  (* Componentwise order; None if incomparable. *)
  let le = ref true and ge = ref true in
  Array.iteri
    (fun i x ->
      if x < b.(i) then ge := false;
      if x > b.(i) then le := false)
    a;
  match (!le, !ge) with
  | true, true -> Some 0
  | true, false -> Some (-1)
  | false, true -> Some 1
  | false, false -> None

let serialize observations =
  (* Insertion sort by view order, detecting incomparability; stable so
     that equal views keep completion order. *)
  let err = ref None in
  let cmp a b =
    match compare_views a.writes b.writes with
    | Some c -> c
    | None ->
      if !err = None then err := Some "P3 violated: incomparable scan views";
      0
  in
  let sorted = List.stable_sort cmp observations in
  match !err with Some e -> Error e | None -> Ok sorted

let check ~k ~n observations =
  match serialize observations with
  | Error e -> Error e
  | Ok scans ->
    let rounds = Array.make n 0 in
    let prev_rows = ref None in
    let prev_leaders = ref (List.init n Fun.id) in
    let err = ref None in
    let max_seen = ref 0 in
    let count = ref 0 in
    (* One scratch counter matrix and graph, refilled per scan — the
       checker decodes the way the protocol does.  The [undecodable]
       report carries the message [set_row], [set_rows] or
       [to_graph_into] raised. *)
    let ec = Bprc_strip.Edge_counters.create ~k ~n in
    let g = Bprc_strip.Distance_graph.create_scratch ~k ~n in
    List.iter
      (fun ob ->
        if !err = None then begin
          incr count;
          match
            Bprc_strip.Edge_counters.set_rows ec ob.rows;
            Bprc_strip.Edge_counters.to_graph_into ec g
          with
          | exception Invalid_argument msg ->
            err := Some ("undecodable edge state: " ^ msg)
          | () ->
            let moved j =
              match !prev_rows with
              | None -> Bytes.exists (( <> ) '\000') ob.rows.(j)
              | Some pr -> not (Bytes.equal ob.rows.(j) pr.(j))
            in
            let mx = Array.fold_left max 0 rounds in
            let new_leaders = List.filter moved !prev_leaders in
            let anchor, anchor_round =
              match new_leaders with
              | j :: _ -> (j, mx + 1)
              | [] -> (
                match !prev_leaders with
                | j :: _ -> (j, mx)
                | [] -> (0, mx))
            in
            for i = 0 to n - 1 do
              let d =
                if i = anchor then Some 0
                else Bprc_strip.Distance_graph.dist g anchor i
              in
              let raw =
                match d with
                | Some d -> anchor_round - d
                | None -> (
                  (* i is ahead of the anchor. *)
                  match Bprc_strip.Distance_graph.dist g i anchor with
                  | Some d -> anchor_round + d
                  | None -> anchor_round)
              in
              (* Monotonicity: the paper's claim is that the assignment
                 itself never decreases; flag before clamping.  The
                 report names the last process that decreased. *)
              if raw < rounds.(i) then
                err :=
                  Some
                    (Printf.sprintf
                       "virtual round of %d decreased (%d -> %d) at scan %d"
                       i rounds.(i) raw !count)
              else rounds.(i) <- raw
            done;
            max_seen := max !max_seen (Array.fold_left max 0 rounds);
            prev_rows := Some ob.rows;
            prev_leaders :=
              List.filter
                (Bprc_strip.Distance_graph.is_leader g)
                (List.init n Fun.id)
        end)
      scans;
    (match !err with
    | Some e -> Error e
    | None ->
      Ok
        {
          scans_checked = !count;
          max_virtual_round = !max_seen;
          final_rounds = rounds;
        })
