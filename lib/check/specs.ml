type reg_op =
  | Read of int
  | Write of int

module Register = struct
  type state = int
  type op = reg_op

  let name = "register"
  let init = 0

  let apply st = function
    | Write v -> Some v
    | Read v -> if v = st then Some st else None

  let pp_op ppf = function
    | Read v -> Fmt.pf ppf "R=%d" v
    | Write v -> Fmt.pf ppf "W(%d)" v
end

let regular ?(init = Register.init) events =
  let writes =
    List.filter_map
      (fun (e : reg_op Hist.event) ->
        match e.op with Write v -> Some (e, v) | Read _ -> None)
      events
    |> List.sort (fun ((a : reg_op Hist.event), _) (b, _) ->
           compare a.start_time b.start_time)
  in
  let rec check_disjoint = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if not (Hist.precedes a b) then
        invalid_arg "Specs.regular: overlapping writes";
      check_disjoint rest
    | _ -> ()
  in
  check_disjoint writes;
  let read_ok r v =
    (* The last write that precedes the read, or [init]. *)
    let prior =
      List.fold_left
        (fun acc (w, wv) -> if Hist.precedes w r then wv else acc)
        init writes
    in
    v = prior
    || List.exists
         (fun (w, wv) ->
           wv = v && not (Hist.precedes w r || Hist.precedes r w))
         writes
  in
  List.for_all
    (fun (e : reg_op Hist.event) ->
      match e.op with Read v -> read_ok e v | Write _ -> true)
    events

type snap_op =
  | Update of { pid : int; value : int }
  | Scan of int array

let pp_snap_op ppf = function
  | Update { pid; value } -> Fmt.pf ppf "U%d(%d)" pid value
  | Scan view ->
    Fmt.pf ppf "S[%a]" Fmt.(array ~sep:(any ",") int) view

let snapshot ~n ?(init = 0) () : (module Lin.SPEC with type op = snap_op) =
  (module struct
    (* States key the memo table by structural equality, so updates
       copy instead of mutating. *)
    type state = int array
    type op = snap_op

    let name = "snapshot"
    let init = Array.make n init

    let apply st = function
      | Update { pid; value } ->
        if pid < 0 || pid >= n then None
        else begin
          let st' = Array.copy st in
          st'.(pid) <- value;
          Some st'
        end
      | Scan view -> if view = st then Some st else None

    let pp_op = pp_snap_op
  end)

type cons_op = Propose of { input : int; output : int }

module Consensus = struct
  (* [seen] is kept sorted so trace-equivalent states compare equal in
     the memo table. *)
  type state = { decided : int option; seen : int list }
  type op = cons_op

  let name = "consensus"
  let init = { decided = None; seen = [] }

  let add v seen = List.sort_uniq compare (v :: seen)

  let apply st (Propose { input; output }) =
    let seen = add input st.seen in
    match st.decided with
    | None ->
      if List.mem output seen then Some { decided = Some output; seen }
      else None
    | Some d -> if output = d then Some { st with seen } else None

  let pp_op ppf (Propose { input; output }) =
    Fmt.pf ppf "P(%d)=%d" input output
end
