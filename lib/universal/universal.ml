module Make (R : Bprc_runtime.Runtime_intf.S) = struct
  module Snap = Bprc_snapshot.Handshake.Make (R)
  module Mv = Bprc_core.Multivalued.Make (R)

  type announcement = { a_idx : int; a_payload : int }

  type 's replica = {
    mutable state : 's;
    mutable position : int;  (** next log position to fill/learn *)
    applied : (int * int, unit) Hashtbl.t;  (** (pid, idx) already applied *)
    mutable next_idx : int;  (** my next operation index *)
  }

  type ('s, 'r) t = {
    payload_bits : int;
    idx_bits : int;
    width : int;
    apply : 's -> int -> 's * 'r;
    board : announcement option Snap.t;
    instances : Mv.t Bprc_util.Vec.t;
    name : string;
    params : Bprc_core.Params.t;
    replicas : 's replica array;
  }

  let bits_for x =
    let rec go acc v = if v >= x then acc else go (acc + 1) (v * 2) in
    go 0 1

  let create ?(name = "univ") ?(params = Bprc_core.Params.default)
      ?(payload_bits = 8) ?(idx_bits = 10) ~apply ~init () =
    let pid_bits = max 1 (bits_for R.n) in
    let width = pid_bits + idx_bits + payload_bits in
    if payload_bits <= 0 || idx_bits <= 0 then
      invalid_arg "Universal.create: bit widths must be positive";
    if width > 30 then
      invalid_arg "Universal.create: descriptor exceeds the consensus domain";
    {
      payload_bits;
      idx_bits;
      width;
      apply;
      board = Snap.create ~name:(name ^ ".board") ~init:None ();
      instances = Bprc_util.Vec.create ();
      name;
      params;
      replicas =
        Array.init R.n (fun _ ->
            {
              state = init;
              position = 0;
              applied = Hashtbl.create 32;
              next_idx = 0;
            });
    }

  let encode t ~pid ~idx ~payload =
    (((pid lsl t.idx_bits) lor idx) lsl t.payload_bits) lor payload

  let decode t d =
    let payload = d land ((1 lsl t.payload_bits) - 1) in
    let d = d lsr t.payload_bits in
    let idx = d land ((1 lsl t.idx_bits) - 1) in
    let pid = d lsr t.idx_bits in
    (pid, idx, payload)

  (* Consensus instance for log position [k], created on demand.  No
     shared-memory step happens inside creation. *)
  let instance t k =
    while Bprc_util.Vec.length t.instances <= k do
      Bprc_util.Vec.push t.instances
        (Mv.create
           ~name:(Printf.sprintf "%s.log%d" t.name (Bprc_util.Vec.length t.instances))
           ~params:t.params ~width:t.width ())
    done;
    Bprc_util.Vec.get t.instances k

  (* Pick a proposal for log position [k]: the designated process's
     pending announcement if visible, else my own pending operation.
     The caller's own operation is announced before the loop starts
     and stays pending until applied, so a proposal always exists. *)
  let proposal t rep ~k ~mine =
    let anns = Snap.scan t.board in
    let pending j =
      match anns.(j) with
      | Some a when not (Hashtbl.mem rep.applied (j, a.a_idx)) ->
        Some (encode t ~pid:j ~idx:a.a_idx ~payload:a.a_payload)
      | _ -> None
    in
    match pending (k mod R.n) with Some p -> p | None -> mine

  (* Learn/force log position [k] and apply its operation; returns the
     pre-state and decode of the operation if it was fresh. *)
  let advance t rep ~mine =
    let k = rep.position in
    let prop = proposal t rep ~k ~mine in
    let decided = Mv.run (instance t k) ~input:prop in
    rep.position <- k + 1;
    let pid, idx, payload = decode t decided in
    if Hashtbl.mem rep.applied (pid, idx) then None
    else begin
      Hashtbl.add rep.applied (pid, idx) ();
      let pre = rep.state in
      let post, result = t.apply pre payload in
      rep.state <- post;
      Some ((pid, idx), pre, result)
    end

  let invoke t payload =
    if payload < 0 || payload >= 1 lsl t.payload_bits then
      invalid_arg "Universal.invoke: payload out of range";
    let me = R.pid () in
    let rep = t.replicas.(me) in
    if rep.next_idx >= (1 lsl t.idx_bits) - 1 then
      invalid_arg "Universal.invoke: operation budget exhausted";
    let idx = rep.next_idx in
    rep.next_idx <- idx + 1;
    Snap.write t.board (Some { a_idx = idx; a_payload = payload });
    let mine = encode t ~pid:me ~idx ~payload in
    let rec go () =
      match advance t rep ~mine with
      | Some ((dpid, didx), pre, result) when dpid = me && didx = idx ->
        (pre, result)
      | _ -> go ()
    in
    let answer = go () in
    (* Withdraw the fulfilled announcement so helpers stop proposing it
       (replay dedup makes stale proposals harmless anyway). *)
    Snap.write t.board None;
    answer

  let local_state t ~pid = t.replicas.(pid).state

  let log_length t =
    Array.fold_left (fun acc r -> max acc r.position) 0 t.replicas
end
