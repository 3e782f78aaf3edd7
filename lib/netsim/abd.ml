(* Type-safe universal embedding for heterogeneous register values
   (replicas store values of every register, whatever its type). *)
type univ = ..

let embed (type a) () : (a -> univ) * (univ -> a) =
  let module M = struct
    type univ += C of a
  end in
  ( (fun x -> M.C x),
    function M.C x -> x | _ -> invalid_arg "Abd: universal tag mismatch" )

type tag = int * int (* (sequence, writer) — lexicographic *)

type msg =
  | Get of { rid : int; op : int }
  | Get_ack of { rid : int; op : int; mtag : tag; value : univ }
  | Put of { rid : int; op : int; mtag : tag; value : univ }
  | Put_ack of { rid : int; op : int }
  | Done

module Net = Netsim.Make (struct
  type nonrec msg = msg
end)

type replica = {
  store : (int, tag * univ) Hashtbl.t;
  mutable op_counter : int;  (** client-side op ids, per node *)
  mutable dones_seen : int;
}

type t = {
  net : Net.t;
  n : int;
  majority : int;
  replicas : replica array;
  inits : (int, univ) Hashtbl.t;  (** register id → initial value *)
  shadow : (int, univ) Hashtbl.t;  (** checker-level last completed write *)
  mutable next_rid : int;
  mutable quorum_count : int;
  mutable done_broadcasts : int;
}

type 'a handle = 'a option ref

let create ?seed ?max_events ~n () =
  {
    net = Net.create ?seed ?max_events ~n ();
    n;
    majority = (n / 2) + 1;
    replicas =
      Array.init n (fun _ ->
          { store = Hashtbl.create 64; op_counter = 0; dones_seen = 0 });
    inits = Hashtbl.create 64;
    shadow = Hashtbl.create 64;
    next_rid = 0;
    quorum_count = 0;
    done_broadcasts = 0;
  }

let stored t node rid =
  match Hashtbl.find_opt t.replicas.(node).store rid with
  | Some tv -> tv
  | None -> ((0, -1), Hashtbl.find t.inits rid)

(* Store [(mtag, value)] at [me]'s replica unless it already holds a
   higher tag: a replica's tag never goes down, or a completed write
   could be overwritten by an older one. *)
let adopt t me rid mtag value =
  let cur_tag, _ = stored t me rid in
  if mtag > cur_tag then Hashtbl.replace t.replicas.(me).store rid (mtag, value)

(* Serve one replica request addressed to [me]. *)
let serve t ~me ~src = function
  | Get { rid; op } ->
    let mtag, value = stored t me rid in
    Net.send t.net ~dst:src (Get_ack { rid; op; mtag; value })
  | Put { rid; op; mtag; value } ->
    adopt t me rid mtag value;
    Net.send t.net ~dst:src (Put_ack { rid; op })
  | Done -> t.replicas.(me).dones_seen <- t.replicas.(me).dones_seen + 1
  | Get_ack _ | Put_ack _ -> () (* stale ack of a completed phase *)

(* One quorum phase: broadcast [req], then serve until [matches] has
   accepted [majority - 1] acks (the local replica counts as the
   majority's first member and is applied directly by the caller). *)
let quorum_phase t ~me ~req ~matches =
  Net.broadcast t.net req;
  let acks = ref 1 in
  while !acks < t.majority do
    let src, m = Net.recv t.net in
    if matches m then incr acks else serve t ~me ~src m
  done;
  t.quorum_count <- t.quorum_count + 1

(* Collect variant: also fold the matched acks. *)
let quorum_collect t ~me ~req ~matches =
  Net.broadcast t.net req;
  let acks = ref 1 in
  let collected = ref [] in
  while !acks < t.majority do
    let src, m = Net.recv t.net in
    match matches m with
    | Some x ->
      incr acks;
      collected := x :: !collected
    | None -> serve t ~me ~src m
  done;
  t.quorum_count <- t.quorum_count + 1;
  !collected

let next_op t me =
  let r = t.replicas.(me) in
  r.op_counter <- r.op_counter + 1;
  r.op_counter

(* Multi-writer ABD write: query majority for max tag, then put. *)
let abd_write t rid (to_u : 'a -> univ) (v : 'a) =
  let me = Net.me t.net in
  let op = next_op t me in
  let local_tag, _ = stored t me rid in
  let tags =
    quorum_collect t ~me ~req:(Get { rid; op }) ~matches:(function
      | Get_ack g when g.rid = rid && g.op = op -> Some g.mtag
      | _ -> None)
  in
  let max_tag = List.fold_left max local_tag tags in
  let mtag = (fst max_tag + 1, me) in
  let value = to_u v in
  (* Apply locally (first member of the quorum), then remotely.  The
     local replica may have served a higher tag during the query. *)
  adopt t me rid mtag value;
  let op = next_op t me in
  quorum_phase t ~me
    ~req:(Put { rid; op; mtag; value })
    ~matches:(function
      | Put_ack p when p.rid = rid && p.op = op -> true
      | _ -> false);
  Hashtbl.replace t.shadow rid value

(* ABD read: collect majority, adopt the max, write it back. *)
let abd_read t rid (of_u : univ -> 'a) : 'a =
  let me = Net.me t.net in
  let op = next_op t me in
  let local = stored t me rid in
  let collected =
    quorum_collect t ~me ~req:(Get { rid; op }) ~matches:(function
      | Get_ack g when g.rid = rid && g.op = op -> Some (g.mtag, g.value)
      | _ -> None)
  in
  let mtag, value = List.fold_left max local collected in
  adopt t me rid mtag value;
  let op = next_op t me in
  quorum_phase t ~me
    ~req:(Put { rid; op; mtag; value })
    ~matches:(function
      | Put_ack p when p.rid = rid && p.op = op -> true
      | _ -> false);
  of_u value

let runtime (t : t) : (module Bprc_runtime.Runtime_intf.S) =
  (module struct
    type 'a reg = {
      rid : int;
      to_u : 'a -> univ;
      of_u : univ -> 'a;
      name : string;
    }

    let make_reg ?(name = "r") v =
      let rid = t.next_rid in
      t.next_rid <- rid + 1;
      let to_u, of_u = embed () in
      Hashtbl.replace t.inits rid (to_u v);
      Hashtbl.replace t.shadow rid (to_u v);
      { rid; to_u; of_u; name }

    let read r = abd_read t r.rid r.of_u
    let write r v = abd_write t r.rid r.to_u v
    let peek r = r.of_u (Hashtbl.find t.shadow r.rid)
    let poke r v = Hashtbl.replace t.shadow r.rid (r.to_u v)
    let flip () = Net.flip t.net
    let pid () = Net.me t.net
    let n = t.n
    let now () = Net.events t.net
    let yield () = Net.yield t.net
  end : Bprc_runtime.Runtime_intf.S)

let spawn_client t f =
  let cell = ref None in
  ignore
    (Net.spawn t.net (fun () ->
         let v = f () in
         (* Stash the result before the serving tail: with crashed
            peers the Done quorum never completes, yet the caller's
            answer is already available. *)
         cell := Some v;
         let me = Net.me t.net in
         Net.broadcast t.net Done;
         t.done_broadcasts <- t.done_broadcasts + 1;
         (* Keep serving until everyone has finished (n-1 Dones seen). *)
         while t.replicas.(me).dones_seen < t.n - 1 do
           let src, m = Net.recv t.net in
           serve t ~me ~src m
         done));
  cell

let run t =
  match Net.run t.net with
  | Net.Completed -> `Completed
  | Net.Hit_event_limit -> `Event_limit
  | Net.Deadlock -> `Deadlock

let result c = !c
let crash t id = Net.crash t.net id
let set_fault_hook t h = Net.set_fault_hook t.net h
let events t = Net.events t.net
let messages_sent t = Net.messages_sent t.net
let quorum_ops t = t.quorum_count
